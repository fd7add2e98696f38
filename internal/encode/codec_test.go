package encode

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"phmse/internal/constraint"
	"phmse/internal/geom"
	"phmse/internal/molecule"
)

// The request scanner and writer are held to encoding/json reading and
// writing the tagged wire types: the reference implementations below are
// the reflection codec they replaced.

// referenceFileProblem converts a problem to the tagged file struct.
func referenceFileProblem(p *molecule.Problem) (*fileProblem, error) {
	fp := &fileProblem{Name: p.Name}
	for _, a := range p.Atoms {
		fp.Atoms = append(fp.Atoms, fileAtom{Name: a.Name, Residue: a.Residue, Pos: a.Pos})
	}
	for r := range p.Constraints.Len() {
		fp.Constraints = append(fp.Constraints, toFile(&p.Constraints, r))
	}
	fp.Tree = referenceFileGroup(p.Tree)
	return fp, nil
}

func referenceFileGroup(g *molecule.Group) *fileGroup {
	if g == nil {
		return nil
	}
	fg := &fileGroup{Name: g.Name, Atoms: g.AtomIDs}
	for _, c := range g.Children {
		fg.Children = append(fg.Children, referenceFileGroup(c))
	}
	return fg
}

func referenceMarshal(p *molecule.Problem, params SolveParams, warm *WarmStartRef) ([]byte, error) {
	fp, err := referenceFileProblem(p)
	if err != nil {
		return nil, err
	}
	return json.Marshal(solveRequest{Problem: fp, Params: params, WarmStart: warm})
}

func referenceWriteProblem(p *molecule.Problem) ([]byte, error) {
	fp, err := referenceFileProblem(p)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	err = enc.Encode(fp)
	return buf.Bytes(), err
}

func referenceReadSolveRequest(body []byte) (*molecule.Problem, SolveParams, *WarmStartRef, error) {
	var req solveRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, SolveParams{}, nil, err
	}
	p, err := req.validate()
	if err != nil {
		return nil, SolveParams{}, nil, err
	}
	return p, req.Params, req.WarmStart, nil
}

func referenceReadProblem(data []byte) (*molecule.Problem, error) {
	var fp fileProblem
	if err := json.Unmarshal(data, &fp); err != nil {
		return nil, err
	}
	return fp.problem()
}

// referenceSolveRouting is the routing pass as a reflection decode into
// the routing-relevant shape, keyed by the string-per-record renderer.
func referenceSolveRouting(body []byte) (string, *WarmStartRef, error) {
	var req struct {
		Problem *struct {
			Atoms       []struct{} `json:"atoms"`
			Constraints []fileTopo `json:"constraints"`
			Tree        *fileGroup `json:"tree"`
		} `json:"problem"`
		WarmStart *WarmStartRef `json:"warm_start"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return "", nil, err
	}
	if req.Problem == nil || len(req.Problem.Atoms) == 0 {
		return "", nil, fmt.Errorf("no problem with atoms")
	}
	if req.WarmStart != nil && req.WarmStart.Job == "" {
		return "", nil, fmt.Errorf("warm_start reference has no job id")
	}
	recs := make([]string, len(req.Problem.Constraints))
	for i, c := range req.Problem.Constraints {
		recs[i] = string(c.appendRecord(nil))
	}
	sort.Strings(recs)
	h := sha256.New()
	fmt.Fprintf(h, "atoms:%d\n", len(req.Problem.Atoms))
	for _, r := range recs {
		io.WriteString(h, r+"\n")
	}
	io.WriteString(h, "tree:")
	var tree func(*molecule.Group)
	tree = func(g *molecule.Group) {
		if g == nil {
			io.WriteString(h, "-")
			return
		}
		io.WriteString(h, "(")
		for i, a := range g.AtomIDs {
			if i > 0 {
				io.WriteString(h, ",")
			}
			fmt.Fprintf(h, "%d", a)
		}
		for _, c := range g.Children {
			tree(c)
		}
		io.WriteString(h, ")")
	}
	tree(fromFileGroup(req.Problem.Tree))
	return hex.EncodeToString(h.Sum(nil)), req.WarmStart, nil
}

// sameBits reports whether a and b are deeply equal with every float
// compared bit for bit, so -0 and 0 differ.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.String:
		return a.String() == b.String()
	case reflect.Int, reflect.Int64, reflect.Int32:
		return a.Int() == b.Int()
	case reflect.Uint8:
		return a.Uint() == b.Uint()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		if a.Elem().Type() != b.Elem().Type() {
			return false
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	panic("sameBits: unhandled kind " + a.Kind().String())
}

func requireSame(t *testing.T, what string, got, want any, data []byte) {
	t.Helper()
	if !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
		t.Fatalf("%s differs from encoding/json's\n got: %#v\nwant: %#v\ninput: %q", what, got, want, data)
	}
}

func requireAgree(t *testing.T, what string, err, wantErr error, data []byte) {
	t.Helper()
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: error %v, encoding/json's %v\ninput: %q", what, err, wantErr, data)
	}
}

// requireMatchesReference checks every reader of the request schema, and
// the writer on whatever they accept, against encoding/json.
func requireMatchesReference(t *testing.T, data []byte) {
	t.Helper()
	var want solveRequest
	got, err := decodeRequest(data, &fullSchema)
	requireAgree(t, "request decode", err, json.Unmarshal(data, &want), data)
	if err == nil {
		requireSame(t, "decoded request", got, want, data)
	}
	var wantDoc fileProblem
	gotDoc, err := decodeProblem(data)
	requireAgree(t, "problem decode", err, json.Unmarshal(data, &wantDoc), data)
	if err == nil {
		requireSame(t, "decoded problem document", gotDoc, wantDoc, data)
	}
	p, err := ReadProblemBytes(data)
	wantP, wantErr := referenceReadProblem(data)
	requireAgree(t, "ReadProblem", err, wantErr, data)
	if err == nil {
		requireSame(t, "ReadProblem", p, wantP, data)
	}

	key, ref, err := SolveRouting(data)
	wantKey, wantRef, wantErr := referenceSolveRouting(data)
	requireAgree(t, "SolveRouting", err, wantErr, data)
	if err == nil && key != wantKey {
		t.Fatalf("routing key %s, reference %s\ninput: %q", key, wantKey, data)
	}
	requireSame(t, "routing warm_start", ref, wantRef, data)

	p, params, warm, err := ReadSolveRequest(bytes.NewReader(data))
	wantP, wantParams, wantWarm, wantErr := referenceReadSolveRequest(data)
	requireAgree(t, "ReadSolveRequest", err, wantErr, data)
	if err != nil {
		return
	}
	requireSame(t, "problem", p, wantP, data)
	requireSame(t, "params", params, wantParams, data)
	requireSame(t, "warm_start", warm, wantWarm, data)

	body, err := MarshalSolveRequest(p, params, warm)
	wantBody, wantErr := referenceMarshal(p, params, warm)
	requireAgree(t, "MarshalSolveRequest", err, wantErr, data)
	if !bytes.Equal(body, wantBody) {
		t.Fatalf("MarshalSolveRequest of an accepted request\n got: %s\nwant: %s", body, wantBody)
	}
}

// codecSeeds are the corners of encoding/json's decoding rules the scanner
// must keep.
func codecSeeds() []string {
	return []string{
		// Keys fold case, including the two non-ASCII letters that fold
		// onto ASCII ones: ſ (U+017F) onto s, the Kelvin sign onto k.
		`{"PROBLEM":{"ATOMS":[{"POS":[1,2,3],"Name":"a"},{"pos":[0,0,1]},{}],"Constraints":[{"TYPE":"position","I":0,"Point":[0,0,0],"SIGMA":1},` +
			`{"type":"angle","i":0,"j":1,"\u212a":2,"ſigma":0.5}]},"Params":{"MODE":"flat","Keep_Posterior":true},"Warm_Start":{"JOB":"s1.job-000001"}}`,
		"{\"problem\":{\"atoms\":[{},{},{}],\"constraints\":[{\"type\":\"angle\",\"i\":0,\"j\":1,\"\u212a\":2,\"sigma\":1}]}}",
		`{"problem":{"atoms":[{}]},"params":{"max_Cycles":3,"TIMEOUT_MS":9,"procs":2,"Procs":3}}`,
		// A repeated key decodes again into what the earlier one left.
		`{"problem":{"atoms":[{"pos":[1,2,3],"name":"x"},{"pos":[4,5,6]}],"atoms":[{"pos":[null,7]}],"name":"a","name":null}}`,
		`{"problem":{"atoms":[{},{},{}],"constraints":[{"type":"distance","i":0,"j":1,"sigma":1},{"type":"angle","i":0,"j":1,"k":2,"sigma":1},` +
			`{"type":"bound","i":1,"j":2,"lower":1,"upper":2,"sigma":1}],"constraints":[{"type":"torsion"}],"constraints":[{"l":2},{"sigma":2},{}]}}`,
		`{"problem":{"atoms":[{}],"tree":{"name":"r","atoms":[0],"children":[{"atoms":[0]},{"atoms":[0]}]},"tree":{"children":[{"name":"c"}]}}}`,
		`{"problem":{"atoms":[{}],"tree":{"children":[{"atoms":[0]},{"atoms":[0]}]},"tree":{"children":[]},"tree":{"children":[{},{}]}}}`,
		`{"problem":{"atoms":[{}]},"problem":{"constraints":[{"type":"position","i":0,"point":[1,2,3],"sigma":1}]},"problem":null,"problem":{"atoms":[{}]}}`,
		`{"problem":{"atoms":[{}],"constraints":[{"type":"position","i":0,"point":[1,2,3],"sigma":1}]},"problem":{"constraints":[{"point":[4]}]}}`,
		`{"problem":{"atoms":[{}]},"warm_start":{"job":"a"},"warm_start":{},"params":{"seed":3},"params":{"tol":1e-3}}`,
		// null leaves values alone and clears pointers and slices.
		`{"problem":{"name":null,"atoms":[null,{"pos":null,"residue":null,"name":null}],"constraints":[null,{"type":"position","i":null,"point":null,"sigma":1}],"tree":null},"params":null,"warm_start":null}`,
		`{"problem":{"atoms":[{}],"tree":{"atoms":null,"children":[null,{"children":null}]}},"params":{"mode":null,"auto":null,"tol":null}}`,
		`{"problem":{"atoms":[{}],"tree":{"atoms":[0,null,0]}},"warm_start":{"job":null}}`,
		// An int takes only an integer literal in range.
		`{"problem":{"atoms":[{},{}],"constraints":[{"type":"distance","i":1.0,"j":0,"sigma":1}]}}`,
		`{"problem":{"atoms":[{},{}],"constraints":[{"type":"distance","i":0,"j":1e0,"sigma":1}]}}`,
		`{"problem":{"atoms":[{},{}],"constraints":[{"type":"distance","i":0,"j":1,"sigma":1}]},"params":{"seed":1.5}}`,
		`{"problem":{"atoms":[{"residue":-0}],"tree":{"atoms":[-0]}},"params":{"seed":-9223372036854775808,"timeout_ms":9223372036854775807}}`,
		`{"problem":{"atoms":[{}]},"params":{"seed":9223372036854775808}}`,
		`{"problem":{"atoms":[{"residue":1.5}]}}`,
		// Floats: negative zero, subnormals, underflow to zero, overflow.
		`{"problem":{"atoms":[{"pos":[-0,5e-324,1e-400]}],"constraints":[{"type":"position","i":0,"point":[-0.0,1E21,1e-7],"sigma":2.5e-308}]},"params":{"tol":-0,"perturb":1e21}}`,
		`{"problem":{"atoms":[{"pos":[1e400,0,0]}]}}`,
		`{"problem":{"atoms":[{"pos":[1,2,3,4,"extra",{}]}]}}`,
		`{"problem":{"atoms":[{"pos":[1]}]}}`,
		// Type mismatches, in fields routing reads and fields it skips.
		`{"problem":{"atoms":[{}]},"params":{"auto":1}}`,
		`{"problem":{"atoms":[{}]},"params":{"mode":5}}`,
		`{"problem":{"atoms":[{}]},"params":"fast"}`,
		`{"problem":{"atoms":[{}]},"params":[]}`,
		`{"problem":{"atoms":[1]}}`,
		`{"problem":{"atoms":{}}}`,
		`{"problem":{"atoms":[{}],"tree":[]}}`,
		`{"problem":{"atoms":[{}],"tree":{"atoms":["0"]}}}`,
		`{"problem":{"atoms":[{}],"constraints":[{"type":7}]}}`,
		`{"problem":[]}`,
		`{"problem":{"atoms":[{}]},"warm_start":"s1.job-000001"}`,
		`{"problem":{"atoms":[{}]},"warm_start":{"job":7}}`,
		`{"problem":{"name":7,"atoms":[{"pos":"x"}],"constraints":[{"type":"distance","i":0,"j":0,"sigma":"x"}]}}`,
		// Escapes, unpaired surrogates and invalid UTF-8.
		`{"pr\u006fblem":{"atoms":[{"name":"\ud83d\ude00 \ud800x \udc00 \ud800\u0041 \"\\\/\b\f\n\r\t \u0000 \u2028"}],"constraints":[{"type":"dist\u0061nce","i":0,"j":0,"sigma":1}]}}`,
		`{"problem":{"atoms":[{"name":"\x"}]}}`,
		`{"problem":{"atoms":[{"name":"\u12"}]}}`,
		"{\"problem\":{\"name\":\"\xff\xfe\",\"atoms\":[{\"name\":\"a\xed\xa0\x80b\xc3\"}]}}",
		"{\"problem\":{\"atoms\":[{\"name\":\"\x01\"}]}}",
		"{\"problem\":{\"atoms\":[{\"\xffname\":\"x\"}]}}",
		// Syntax, and exactly one document.
		`{"problem":{"atoms":[{}]}} {}`,
		`{"problem":{"atoms":[{}]}}x`,
		"{\"problem\":{\"atoms\":[{}]}} \t\r\n",
		`{"problem":{"atoms":[{},]}}`,
		`{"problem":{"atoms":[{}]},}`,
		`{"problem" {"atoms":[{}]}}`,
		`{"problem":{"atoms":[{}]}`,
		` `,
		``,
		`{"problem":{"atoms":[{}]},"x":[01]}`,
		`{"problem":{"atoms":[{}]},"x":-}`,
		`{"problem":{"atoms":[{}]},"x":tru}`,
		`{"problem":{"atoms":[{}]},"x":nullx}`,
		`{"problem":{"atoms":[{}]},"x":1.}`,
		`{"problem":{"atoms":[{}]},"x":1e+}`,
		`{"problem":{"atoms":[{}]},"x":{"a":[1,{"b":"\u00e9"}],"c":true}}`,
	}
}

// The nesting limit is a table case rather than a fuzz seed: mutating a
// 20 KB seed stalls the fuzzer.
func TestScannerDepthLimit(t *testing.T) {
	for _, depth := range []int{maxDepth - 1, maxDepth} {
		doc := `{"problem":{"atoms":[{}]},"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + "}"
		requireMatchesReference(t, []byte(doc))
		if _, _, _, err := ReadSolveRequest(strings.NewReader(doc)); (err == nil) != (depth < maxDepth) {
			t.Errorf("nesting depth %d: error %v", depth+1, err)
		}
	}
}

func FuzzSolveRequestMatchesReference(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add([]byte(`{"problem":` + seed + `}`))
		f.Add([]byte(seed))
	}
	for _, seed := range codecSeeds() {
		f.Add([]byte(seed))
	}
	f.Add(solveBody(f, molecule.WithAnchors(molecule.Protein(3, 1), 1, 0.1), SolveParams{Mode: "flat", Tol: 1e-9, Seed: 4}, &WarmStartRef{Job: "s2.job-000003"}))
	f.Fuzz(func(t *testing.T, data []byte) {
		requireMatchesReference(t, data)
	})
}

// edgeProblem carries the values whose JSON form has a rule: HTML, line
// separators, control bytes and invalid UTF-8 in names, and floats at the
// exponent-form cutoffs, signed zero and the smallest subnormal.
func edgeProblem() *molecule.Problem {
	p := sampleProblem()
	p.Name = "<a href=\"x\">&amp;</a> \u2028\u2029 \x00\x1f\x7f \xff\xfe\xed\xa0\x80 é 😀 \\ \b\f\n\r\t"
	p.Atoms[0].Name = "\xc3"
	p.Atoms[1].Pos = geom.Vec3{math.Copysign(0, -1), 1e-7, 1e21}
	p.Atoms[2].Pos = geom.Vec3{5e-324, -1e-6, 123456789.125}
	p.Atoms[3].Pos = geom.Vec3{1e20, 9.999999999999999e20, -1.5e-7}
	p.Atoms[4].Residue = -3
	p.Constraints.Add(constraint.Distance{I: 0, J: 0, Target: math.Copysign(0, -1), Sigma: 5e-324}.Row(), constraint.DistanceBound{I: 2, J: 3, Lower: -0.000001, Upper: math.MaxFloat64, Sigma: 1e300}.Row(), constraint.Position{I: 0, Target: geom.Vec3{}, Sigma: 1e-300}.Row())
	p.Tree.Children = append(p.Tree.Children, nil, &molecule.Group{}, &molecule.Group{Name: "<>", AtomIDs: []int{}})
	return p
}

func TestMarshalSolveRequestMatchesJSON(t *testing.T) {
	problems := []*molecule.Problem{
		edgeProblem(),
		{},
		molecule.Helix(2),
		molecule.WithAnchors(molecule.Helix(1), 4, 0.05),
		molecule.WithExclusions(molecule.WithAnchors(molecule.Protein(5, 3), 2, 0.1), 2, 0.5, 7),
		molecule.Ribo30SWith(molecule.Ribo30SConfig{Helices: 2, Coils: 1, Proteins: 1, Seed: 1}),
	}
	params := []SolveParams{
		{},
		{Mode: "flat", Procs: 2, BatchSize: 16, MaxCycles: 7, Tol: 1e-7, Auto: true, Perturb: 0.4, Seed: -3, TimeoutMillis: 100, KeepPosterior: true},
		{Mode: "<&>\u2028", Tol: math.Copysign(0, -1), Perturb: 1e21, Seed: math.MinInt64},
	}
	warms := []*WarmStartRef{nil, {Job: "s1.job-000001"}, {}, {Job: "\xff<x>"}}
	for i, p := range problems {
		for _, pr := range params {
			for _, warm := range warms {
				got, err := MarshalSolveRequest(p, pr, warm)
				want, wantErr := referenceMarshal(p, pr, warm)
				if err != nil || wantErr != nil {
					t.Fatalf("problem %d: errors %v and %v", i, err, wantErr)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("problem %d, params %+v, warm %v:\n got: %s\nwant: %s", i, pr, warm, got, want)
				}
			}
		}
		var got bytes.Buffer
		if err := WriteProblem(&got, p); err != nil {
			t.Fatal(err)
		}
		want, err := referenceWriteProblem(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("problem %d: WriteProblem\n got: %s\nwant: %s", i, got.Bytes(), want)
		}
	}
}

// What json.Marshal refuses, the writer refuses.
func TestMarshalRefusesNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		p := sampleProblem()
		rows := p.Constraints.Rows()
		rows[0] = constraint.Distance{I: 0, J: 1, Target: 1.5, Sigma: bad}.Row()
		p.Constraints = constraint.Of(rows...)
		if _, err := MarshalSolveRequest(p, SolveParams{}, nil); err == nil {
			t.Errorf("sigma %v: request rendered", bad)
		}
		if err := WriteProblem(io.Discard, p); err == nil {
			t.Errorf("sigma %v: problem written", bad)
		}
		if _, err := MarshalSolveRequest(sampleProblem(), SolveParams{Tol: bad}, nil); err == nil {
			t.Errorf("tol %v: request rendered", bad)
		}
	}
}

func BenchmarkMarshalSolveRequest(b *testing.B) {
	p := molecule.WithAnchors(molecule.Helix(1), 4, 0.05)
	warm := &WarmStartRef{Job: "s1.job-000007"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MarshalSolveRequest(p, SolveParams{}, warm); err != nil {
			b.Fatal(err)
		}
	}
}
