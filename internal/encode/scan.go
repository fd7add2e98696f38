package encode

// The reader behind ReadSolveRequest, ReadProblem and ReadRoute: one pass
// over the bytes straight into the wire types, with no reflection. It keeps
// the decoding rules encoding/json applies to those tagged types, which
// FuzzSolveRequestMatchesReference checks against json.Unmarshal:
//
//   - a key selects a field by exact name, else case-insensitively under
//     Unicode simple folding (bytes.EqualFold); an unknown key's value is
//     checked for syntax and skipped;
//   - a repeated key decodes again into what the earlier one left: scalars
//     are overwritten, objects merged member by member, arrays refilled
//     from index 0 (a slice is then cut to the new length, a fixed array's
//     tail zeroed);
//   - null sets a pointer or slice to nil and leaves anything else alone;
//   - an int takes only an integer literal in range (1.5, 1.0 and 1e2 are
//     refused), a float64 any literal strconv.ParseFloat can hold;
//   - strings are unescaped, with each invalid UTF-8 byte read as U+FFFD;
//   - the input is exactly one value, nested at most 10000 deep.

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

var errEOF = errors.New("unexpected end of JSON input")

// schema names the fields the decoder fills, per object kind; a key
// matching none of them is skipped.
type schema struct {
	request, problem, atom, constraint []string
}

var (
	// fullSchema is every field of solveRequest and fileProblem.
	fullSchema = schema{
		request:    []string{"problem", "params", "warm_start"},
		problem:    []string{"name", "atoms", "constraints", "tree"},
		atom:       []string{"name", "residue", "pos"},
		constraint: []string{"type", "i", "j", "k", "l", "target", "point", "lower", "upper", "sigma"},
	}
	// routeSchema is what routing reads: the warm-start reference and the
	// problem's topology. Atoms are only counted, and params, names,
	// positions and measurement values are skipped unparsed, so the router
	// refuses only what it cannot route and leaves validation to the shard.
	routeSchema = schema{
		request:    []string{"problem", "warm_start"},
		problem:    []string{"atoms", "constraints", "tree"},
		constraint: []string{"type", "i", "j", "k", "l"},
	}
	groupFields = []string{"name", "atoms", "children"}
	paramFields = []string{"mode", "procs", "batch", "max_cycles", "tol", "auto", "perturb", "seed", "timeout_ms", "keep_posterior"}
	warmFields  = []string{"job"}
)

// decodeRequest decodes a solve request body under the schema.
func decodeRequest(body []byte, s *schema) (solveRequest, error) {
	var req solveRequest
	d := decoder{data: body, fields: s}
	err := d.document(func() error { return d.request(&req) })
	return req, err
}

// decodeProblem decodes a problem document.
func decodeProblem(data []byte) (fileProblem, error) {
	var fp fileProblem
	d := decoder{data: data, fields: &fullSchema}
	err := d.document(func() error { return d.problem(&fp) })
	return fp, err
}

// decoder reads data from off. Every value method starts at the value's
// first byte and stops just past its last.
type decoder struct {
	data   []byte
	off    int
	depth  int
	fields *schema
}

func (d *decoder) request(req *solveRequest) error {
	return d.object("solve request", func(key []byte) error {
		switch field(key, d.fields.request) {
		case "problem":
			return decodePtr(d, &req.Problem, d.problem)
		case "params":
			return d.params(&req.Params)
		case "warm_start":
			return decodePtr(d, &req.WarmStart, d.warmStart)
		}
		return d.skip()
	})
}

func (d *decoder) problem(fp *fileProblem) error {
	return d.object("problem", func(key []byte) error {
		switch field(key, d.fields.problem) {
		case "name":
			return d.string(&fp.Name)
		case "atoms":
			return decodeSlice(d, &fp.Atoms, d.atom)
		case "constraints":
			if fp.Constraints == nil {
				fp.Constraints = getRecords()
			}
			return decodeSlice(d, &fp.Constraints, d.constraint)
		case "tree":
			return decodePtr(d, &fp.Tree, d.group)
		}
		return d.skip()
	})
}

func (d *decoder) atom(a *fileAtom) error {
	return d.object("atom", func(key []byte) error {
		switch field(key, d.fields.atom) {
		case "name":
			return d.string(&a.Name)
		case "residue":
			return d.int(&a.Residue)
		case "pos":
			return d.vec3(&a.Pos)
		}
		return d.skip()
	})
}

func (d *decoder) constraint(c *fileConstraint) error {
	return d.object("constraint", func(key []byte) error {
		switch field(key, d.fields.constraint) {
		case "type":
			return d.string(&c.Type)
		case "i":
			return d.int(&c.I)
		case "j":
			return d.int(&c.J)
		case "k":
			return d.int(&c.K)
		case "l":
			return d.int(&c.L)
		case "target":
			return d.float(&c.Target)
		case "point":
			return decodePtr(d, &c.Point, d.vec3)
		case "lower":
			return d.float(&c.Lower)
		case "upper":
			return d.float(&c.Upper)
		case "sigma":
			return d.float(&c.Sigma)
		}
		return d.skip()
	})
}

func (d *decoder) group(g *fileGroup) error {
	return d.object("group", func(key []byte) error {
		switch field(key, groupFields) {
		case "name":
			return d.string(&g.Name)
		case "atoms":
			return decodeSlice(d, &g.Atoms, d.int)
		case "children":
			return decodeSlice(d, &g.Children, func(c **fileGroup) error { return decodePtr(d, c, d.group) })
		}
		return d.skip()
	})
}

func (d *decoder) params(p *SolveParams) error {
	return d.object("params", func(key []byte) error {
		switch field(key, paramFields) {
		case "mode":
			return d.string(&p.Mode)
		case "procs":
			return d.int(&p.Procs)
		case "batch":
			return d.int(&p.BatchSize)
		case "max_cycles":
			return d.int(&p.MaxCycles)
		case "tol":
			return d.float(&p.Tol)
		case "auto":
			return d.bool(&p.Auto)
		case "perturb":
			return d.float(&p.Perturb)
		case "seed":
			return d.int64(&p.Seed)
		case "timeout_ms":
			return d.int64(&p.TimeoutMillis)
		case "keep_posterior":
			return d.bool(&p.KeepPosterior)
		}
		return d.skip()
	})
}

func (d *decoder) warmStart(w *WarmStartRef) error {
	return d.object("warm_start", func(key []byte) error {
		if field(key, warmFields) == "job" {
			return d.string(&w.Job)
		}
		return d.skip()
	})
}

// field returns the name in names that key selects: an exact match, else a
// case-insensitive one; "" when there is none.
func field(key []byte, names []string) string {
	for _, n := range names {
		if string(key) == n {
			return n
		}
	}
	// Only a non-ASCII key can fold onto a name of another length (the
	// Kelvin sign onto k, ſ onto s).
	ascii := true
	for _, c := range key {
		ascii = ascii && c < utf8.RuneSelf
	}
	for _, n := range names {
		if (!ascii || len(key) == len(n)) && bytes.EqualFold(key, []byte(n)) {
			return n
		}
	}
	return ""
}

// recordPool recycles the constraint records problem documents decode
// into: a reader turns them into columns (Problem.Constraints, Route's)
// and hands them back with putRecords.
var recordPool sync.Pool

// getRecords returns an empty record slice with capacity left by an
// earlier document, every element zero, or nil.
func getRecords() []fileConstraint {
	p, ok := recordPool.Get().(*[]fileConstraint)
	if !ok {
		return nil
	}
	r := *p
	clear(r[:cap(r)])
	return r[:0]
}

// putRecords hands records back for the next document to decode into.
func putRecords(r []fileConstraint) {
	if cap(r) > 0 {
		recordPool.Put(&r)
	}
}

// decodePtr decodes into *p: null sets it nil, anything else decodes into
// the value it points to, allocated on first use.
func decodePtr[T any](d *decoder, p **T, decode func(*T) error) error {
	if d.peek() == 'n' {
		*p = nil
		return d.literal("null")
	}
	if *p == nil {
		*p = new(T)
	}
	return decode(*p)
}

// decodeSlice decodes an array into *s: null sets it nil, [] to a new empty
// slice; otherwise elements decode in place from index 0, over whatever an
// earlier key left there, and the slice is cut to the array's length.
func decodeSlice[T any](d *decoder, s *[]T, elem func(*T) error) error {
	if d.peek() == 'n' {
		*s = nil
		return d.literal("null")
	}
	v := *s
	n, err := d.array("array", func(i int) error {
		if i == len(v) {
			if i < cap(v) {
				v = v[:i+1]
			} else {
				v = append(v, *new(T))
			}
		}
		return elem(&v[i])
	})
	if err != nil {
		return err
	}
	if n == 0 {
		v = []T{}
	}
	*s = v[:n]
	return nil
}

func (d *decoder) vec3(v *[3]float64) error {
	if d.peek() == 'n' {
		return d.literal("null")
	}
	n, err := d.array("[3]float64", func(i int) error {
		if i < len(v) {
			return d.float(&v[i])
		}
		return d.skip()
	})
	if err != nil {
		return err
	}
	clear(v[min(n, len(v)):])
	return nil
}

func (d *decoder) string(p *string) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '"':
		s, err := d.str()
		if err != nil {
			return err
		}
		*p = intern(s)
		return nil
	}
	return d.mismatch("string")
}

// intern returns the constraint type tags without allocating.
func intern(b []byte) string {
	switch string(b) {
	case "distance":
		return "distance"
	case "angle":
		return "angle"
	case "torsion":
		return "torsion"
	case "position":
		return "position"
	case "bound":
		return "bound"
	case "displacement":
		return "displacement"
	}
	return string(b)
}

func (d *decoder) bool(p *bool) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case 't':
		*p = true
		return d.literal("true")
	case 'f':
		*p = false
		return d.literal("false")
	}
	return d.mismatch("bool")
}

func (d *decoder) int(p *int) error {
	n, ok, err := d.integer(strconv.IntSize)
	if ok {
		*p = int(n)
	}
	return err
}

func (d *decoder) int64(p *int64) error {
	n, ok, err := d.integer(64)
	if ok {
		*p = n
	}
	return err
}

// integer reads an integer literal that fits in bits; ok is false for null.
func (d *decoder) integer(bits int) (n int64, ok bool, err error) {
	raw, err := d.numberOrNull("int")
	if raw == nil || err != nil {
		return 0, false, err
	}
	if n, err = strconv.ParseInt(string(raw), 10, bits); err != nil {
		return 0, false, fmt.Errorf("cannot decode number %s into int at offset %d", raw, d.off-len(raw))
	}
	return n, true, nil
}

func (d *decoder) float(p *float64) error {
	raw, err := d.numberOrNull("float64")
	if raw == nil || err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(raw), 64)
	if err != nil {
		return fmt.Errorf("cannot decode number %s into float64 at offset %d", raw, d.off-len(raw))
	}
	*p = f
	return nil
}

// numberOrNull scans a number literal, returning its text, or a null,
// returning nil; any other value is a mismatch with into.
func (d *decoder) numberOrNull(into string) ([]byte, error) {
	switch c := d.peek(); {
	case c == 'n':
		return nil, d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		return d.number()
	}
	return nil, d.mismatch(into)
}

// object reads an object, handing each key to member, which must consume
// the value. null leaves the target alone, as it does a struct.
func (d *decoder) object(into string, member func(key []byte) error) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.mismatch(into)
	}
	if err := d.open(); err != nil {
		return err
	}
	if d.peek() == '}' {
		d.close()
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.syntaxError("looking for beginning of object key string")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		d.ws()
		if d.peek() != ':' {
			return d.syntaxError("after object key")
		}
		d.off++
		d.ws()
		if err := member(key); err != nil {
			return err
		}
		d.ws()
		switch d.peek() {
		case ',':
			d.off++
			d.ws()
		case '}':
			d.close()
			return nil
		default:
			return d.syntaxError("after object key:value pair")
		}
	}
}

// array reads an array, calling elem with each index; elem must consume
// the element. It returns the element count. Callers handle null.
func (d *decoder) array(into string, elem func(i int) error) (int, error) {
	if d.peek() != '[' {
		return 0, d.mismatch(into)
	}
	if err := d.open(); err != nil {
		return 0, err
	}
	if d.peek() == ']' {
		d.close()
		return 0, nil
	}
	for i := 0; ; i++ {
		if err := elem(i); err != nil {
			return 0, err
		}
		d.ws()
		switch d.peek() {
		case ',':
			d.off++
			d.ws()
		case ']':
			d.close()
			return i + 1, nil
		default:
			return 0, d.syntaxError("after array element")
		}
	}
}

// open steps into an object or array.
func (d *decoder) open() error {
	d.off++
	if d.depth++; d.depth > maxDepth {
		return errors.New("exceeded max depth")
	}
	d.ws()
	return nil
}

// close steps out of an object or array.
func (d *decoder) close() {
	d.off++
	d.depth--
}

// skip checks the syntax of one value and steps past it.
func (d *decoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		return d.object("", func([]byte) error { return d.skip() })
	case c == '[':
		_, err := d.array("", func(int) error { return d.skip() })
		return err
	case c == '"':
		_, err := d.str()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number()
		return err
	}
	return d.syntaxError("looking for beginning of value")
}

// document reads data as exactly one value, with only whitespace around it.
func (d *decoder) document(value func() error) error {
	d.ws()
	if err := value(); err != nil {
		return err
	}
	d.ws()
	if d.off < len(d.data) {
		return d.syntaxError("after top-level value")
	}
	return nil
}

func (d *decoder) ws() {
	i, data := d.off, d.data
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	d.off = i
}

// peek returns the next byte, or 0 at the end of the input.
func (d *decoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

func (d *decoder) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if d.off >= len(d.data) {
			return errEOF
		}
		if d.data[d.off] != word[i] {
			return d.syntaxError("in literal " + word)
		}
		d.off++
	}
	return nil
}

// number scans a number literal and returns its text.
func (d *decoder) number() ([]byte, error) {
	start := d.off
	if d.peek() == '-' {
		d.off++
	}
	switch c := d.peek(); {
	case c == '0':
		d.off++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return nil, d.syntaxError("in numeric literal")
	}
	if d.peek() == '.' {
		d.off++
		if err := d.requireDigits(); err != nil {
			return nil, err
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.off++
		if c := d.peek(); c == '+' || c == '-' {
			d.off++
		}
		if err := d.requireDigits(); err != nil {
			return nil, err
		}
	}
	return d.data[start:d.off], nil
}

func (d *decoder) requireDigits() error {
	if c := d.peek(); c < '0' || c > '9' {
		return d.syntaxError("in numeric literal")
	}
	d.digits()
	return nil
}

func (d *decoder) digits() {
	i, data := d.off, d.data
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	d.off = i
}

// str reads a string literal and returns its contents, unescaped. The
// result aliases the input unless unescaping changes a byte: an escape or
// invalid UTF-8.
func (d *decoder) str() ([]byte, error) {
	data := d.data
	start := d.off + 1
	plain := true
	for i := start; ; {
		if i >= len(data) {
			d.off = i
			return nil, errEOF
		}
		switch c := data[i]; {
		case c == '"':
			d.off = i + 1
			if plain {
				return data[start:i], nil
			}
			return unescape(data[start:i]), nil
		case c == '\\':
			plain = false
			d.off = i + 1
			switch d.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if u4(data[i:]) < 0 {
					return nil, d.syntaxError("in \\u hexadecimal character escape")
				}
				i += 6
			default:
				return nil, d.syntaxError("in string escape code")
			}
		case c < 0x20:
			d.off = i
			return nil, d.syntaxError("in string literal")
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(data[i:])
			plain = plain && !(r == utf8.RuneError && size == 1)
			i += size
		}
	}
}

// unescape returns the contents of a string literal str checked:
// escapes decoded, a \u surrogate that does not pair and each invalid
// UTF-8 byte read as U+FFFD.
func unescape(s []byte) []byte {
	b := make([]byte, 0, len(s)+2*utf8.UTFMax)
	for i := 0; i < len(s); {
		switch c := s[i]; {
		case c == '\\' && s[i+1] == 'u':
			r := u4(s[i:])
			i += 6
			if utf16.IsSurrogate(r) {
				if dec := utf16.DecodeRune(r, u4(s[i:])); dec != unicode.ReplacementChar {
					b = utf8.AppendRune(b, dec)
					i += 6
					continue
				}
				r = unicode.ReplacementChar
			}
			b = utf8.AppendRune(b, r)
		case c == '\\':
			b = append(b, unescaped[s[i+1]])
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(s[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	return b
}

// unescaped maps the byte after a backslash to the byte it stands for.
var unescaped = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// u4 decodes the \uXXXX escape at the start of s, or returns -1.
func u4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

func (d *decoder) syntaxError(context string) error {
	if d.off >= len(d.data) {
		return errEOF
	}
	return fmt.Errorf("invalid character %q %s at offset %d", d.data[d.off], context, d.off)
}

// mismatch reports a value that cannot decode into the target, or a
// syntax error where no value starts.
func (d *decoder) mismatch(into string) error {
	if strings.IndexByte(`{["tf-0123456789`, d.peek()) < 0 {
		return d.syntaxError("looking for beginning of value")
	}
	return fmt.Errorf("cannot decode the value at offset %d into %s", d.off, into)
}
