package encode

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"phmse/internal/molecule"
)

// writer renders the request schema as compact JSON, byte for byte what
// json.Marshal makes of the tagged types in encode.go and dto.go: their
// field order and omitempty rules, HTML-safe string escapes, and ES6
// number formatting. The first value json.Marshal would refuse (a NaN or
// infinite float) is kept in err.
type writer struct {
	b   []byte
	err error
}

// problemWriter returns a writer with room for the problem.
func problemWriter(p *molecule.Problem) writer {
	return writer{b: make([]byte, 0, 256+96*len(p.Atoms)+96*p.Constraints.Len())}
}

func (w *writer) request(p *molecule.Problem, params SolveParams, warm *WarmStartRef) {
	w.b = append(w.b, '{')
	w.key("problem")
	w.problem(p)
	w.key("params")
	w.params(params)
	if warm != nil {
		w.key("warm_start")
		w.b = append(w.b, '{')
		w.key("job")
		w.string(warm.Job)
		w.b = append(w.b, '}')
	}
	w.b = append(w.b, '}')
}

func (w *writer) problem(p *molecule.Problem) {
	w.b = append(w.b, '{')
	w.key("name")
	w.string(p.Name)
	w.key("atoms")
	if len(p.Atoms) == 0 {
		w.b = append(w.b, "null"...)
	} else {
		w.b = append(w.b, '[')
		for _, a := range p.Atoms {
			w.comma()
			w.b = append(w.b, '{')
			w.omitString("name", a.Name)
			w.omitInt("residue", int64(a.Residue))
			w.key("pos")
			w.vec3(a.Pos)
			w.b = append(w.b, '}')
		}
		w.b = append(w.b, ']')
	}
	w.key("constraints")
	if p.Constraints.Len() == 0 {
		w.b = append(w.b, "null"...)
	} else {
		w.b = append(w.b, '[')
		for r := range p.Constraints.Len() {
			w.comma()
			w.constraint(toFile(&p.Constraints, r))
		}
		w.b = append(w.b, ']')
	}
	if p.Tree != nil {
		w.key("tree")
		w.group(p.Tree)
	}
	w.b = append(w.b, '}')
}

func (w *writer) constraint(c fileConstraint) {
	w.b = append(w.b, '{')
	w.key("type")
	w.string(c.Type)
	w.key("i")
	w.int(c.I)
	w.omitInt("j", int64(c.J))
	w.omitInt("k", int64(c.K))
	w.omitInt("l", int64(c.L))
	w.omitFloat("target", c.Target)
	if c.Point != nil {
		w.key("point")
		w.vec3(*c.Point)
	}
	w.omitFloat("lower", c.Lower)
	w.omitFloat("upper", c.Upper)
	w.key("sigma")
	w.float(c.Sigma)
	w.b = append(w.b, '}')
}

func (w *writer) group(g *molecule.Group) {
	if g == nil {
		w.b = append(w.b, "null"...)
		return
	}
	w.b = append(w.b, '{')
	w.omitString("name", g.Name)
	if len(g.AtomIDs) > 0 {
		w.key("atoms")
		w.b = append(w.b, '[')
		for _, a := range g.AtomIDs {
			w.comma()
			w.int(a)
		}
		w.b = append(w.b, ']')
	}
	if len(g.Children) > 0 {
		w.key("children")
		w.b = append(w.b, '[')
		for _, c := range g.Children {
			w.comma()
			w.group(c)
		}
		w.b = append(w.b, ']')
	}
	w.b = append(w.b, '}')
}

func (w *writer) params(p SolveParams) {
	w.b = append(w.b, '{')
	w.omitString("mode", p.Mode)
	w.omitInt("procs", int64(p.Procs))
	w.omitInt("batch", int64(p.BatchSize))
	w.omitInt("max_cycles", int64(p.MaxCycles))
	w.omitFloat("tol", p.Tol)
	w.omitTrue("auto", p.Auto)
	w.omitFloat("perturb", p.Perturb)
	w.omitInt("seed", p.Seed)
	w.omitInt("timeout_ms", p.TimeoutMillis)
	w.omitTrue("keep_posterior", p.KeepPosterior)
	w.b = append(w.b, '}')
}

// omitString, omitInt, omitFloat and omitTrue write an omitempty member:
// nothing for "", zero (-0 included) or false.
func (w *writer) omitString(name, s string) {
	if s != "" {
		w.key(name)
		w.string(s)
	}
}

func (w *writer) omitInt(name string, v int64) {
	if v != 0 {
		w.key(name)
		w.b = strconv.AppendInt(w.b, v, 10)
	}
}

func (w *writer) omitFloat(name string, f float64) {
	if f != 0 {
		w.key(name)
		w.float(f)
	}
}

func (w *writer) omitTrue(name string, v bool) {
	if v {
		w.key(name)
		w.b = append(w.b, "true"...)
	}
}

// comma separates a member or element from the one before it.
func (w *writer) comma() {
	if n := len(w.b); n > 0 && w.b[n-1] != '{' && w.b[n-1] != '[' {
		w.b = append(w.b, ',')
	}
}

// key starts an object member; names are plain ASCII and need no escapes.
func (w *writer) key(name string) {
	w.comma()
	w.b = append(w.b, '"')
	w.b = append(w.b, name...)
	w.b = append(w.b, '"', ':')
}

func (w *writer) int(n int) {
	w.b = strconv.AppendInt(w.b, int64(n), 10)
}

func (w *writer) vec3(v [3]float64) {
	w.b = append(w.b, '[')
	for i, x := range v {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		w.float(x)
	}
	w.b = append(w.b, ']')
}

// float formats as encoding/json does: the shortest decimal that reads
// back to the same bits, in exponent form below 1e-6 and from 1e21, with
// no leading zero in a negative exponent.
func (w *writer) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if w.err == nil {
			w.err = fmt.Errorf("encode: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	start := len(w.b)
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if s := w.b[start:]; len(s) >= 4 && s[len(s)-4] == 'e' && s[len(s)-3] == '-' && s[len(s)-2] == '0' {
			s[len(s)-2] = s[len(s)-1]
			w.b = w.b[:len(w.b)-1]
		}
	}
}

const hexDigits = "0123456789abcdef"

// string writes s quoted: \", \\, \b, \f, \n, \r and \t as two-byte
// escapes, other control bytes and <, > and & as \u00XX, U+2028 and U+2029
// escaped, and each invalid UTF-8 byte as \ufffd.
func (w *writer) string(s string) {
	b := append(w.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	w.b = append(b, '"')
}
