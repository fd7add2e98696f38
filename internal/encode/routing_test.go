package encode

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"phmse/internal/constraint"
	"phmse/internal/molecule"
)

func TestQualifyJobRoundTrip(t *testing.T) {
	cases := []struct {
		instance, id, qualified, back string
	}{
		{"s1", "job-000001", "s1.job-000001", "s1"},
		{"", "job-000001", "job-000001", ""},
		{"west-1", "job-000042", "west-1.job-000042", "west-1"},
	}
	for _, c := range cases {
		if got := QualifyJob(c.instance, c.id); got != c.qualified {
			t.Errorf("QualifyJob(%q, %q) = %q, want %q", c.instance, c.id, got, c.qualified)
		}
		if got := JobInstance(c.qualified); got != c.back {
			t.Errorf("JobInstance(%q) = %q, want %q", c.qualified, got, c.back)
		}
	}
	// Ids that merely look dotted are not instance-qualified.
	for _, id := range []string{"job-000001", ".job-000001", "weird-id", ""} {
		if got := JobInstance(id); got != "" {
			t.Errorf("JobInstance(%q) = %q, want empty", id, got)
		}
	}
}

func TestSolveRouting(t *testing.T) {
	p := molecule.Helix(4)
	body := solveBody(t, p, SolveParams{}, &WarmStartRef{Job: "s2.job-000007"})
	key, warm, err := SolveRouting(body)
	if err != nil {
		t.Fatal(err)
	}
	if key != TopologyHash(p) {
		t.Fatalf("routing key %q is not the topology hash %q", key, TopologyHash(p))
	}
	if warm == nil || warm.Job != "s2.job-000007" {
		t.Fatalf("warm ref = %+v, want s2.job-000007", warm)
	}

	// The router refuses only what it cannot route; validating the problem
	// is the shard's job, whose 400 it relays.
	for _, unroutable := range []string{
		`{"params":{}}`,
		`{"problem":{"atoms":[]}}`,
		`{"problem":{"atoms":[{"pos":[0,0,0]}]},"warm_start":{}}`,
		string(body) + `{}`,
	} {
		if _, _, err := SolveRouting([]byte(unroutable)); err == nil {
			t.Errorf("unroutable request produced a routing key: %.60s", unroutable)
		}
	}
	invalid := `{"problem":{"atoms":[{"pos":[0,0,0]}],"constraints":[{"type":"distance","i":0,"j":9,"sigma":-1}]},"params":{"mode":"sideways"}}`
	if _, _, err := SolveRouting([]byte(invalid)); err != nil {
		t.Errorf("router validated a routable request: %v", err)
	}
	if _, _, _, err := ReadSolveRequest(strings.NewReader(invalid)); err == nil {
		t.Error("daemon accepted an invalid request")
	}
}

// solveBody renders a request the long way round — WriteProblem into a raw
// message — so these tests do not lean on the renderer they check.
func solveBody(tb testing.TB, p *molecule.Problem, params SolveParams, warm *WarmStartRef) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := WriteProblem(&buf, p); err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(SolveRequest{Problem: buf.Bytes(), Params: params, WarmStart: warm})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// requireRoutingMatchesDaemon is the equality the routing-only pass must
// keep: whatever body the daemon accepts, the router accepts, keys it with
// the daemon's own TopologyHash, and reads the same warm-start reference.
func requireRoutingMatchesDaemon(t *testing.T, body []byte) {
	t.Helper()
	p, _, warm, err := ReadSolveRequest(bytes.NewReader(body))
	if err != nil {
		return
	}
	key, ref, err := SolveRouting(body)
	if err != nil {
		t.Fatalf("daemon accepts the body, router refuses it: %v\n%s", err, body)
	}
	if want := TopologyHash(p); key != want {
		t.Fatalf("routing key %s, daemon's topology hash %s\n%s", key, want, body)
	}
	if (ref == nil) != (warm == nil) || (ref != nil && *ref != *warm) {
		t.Fatalf("router read warm_start %+v, daemon %+v", ref, warm)
	}
}

func TestSolveRoutingMatchesDaemon(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 40; i++ {
		var p *molecule.Problem
		switch i % 4 {
		case 0:
			p = molecule.WithAnchors(molecule.Helix(1+rng.Intn(2)), rng.Intn(6), 0.05)
		case 1:
			p = molecule.Protein(4+rng.Intn(12), rng.Int63())
		case 2:
			p = molecule.WithExclusions(molecule.Protein(3+rng.Intn(4), rng.Int63()), 2, 0.5, 1+rng.Intn(5))
		case 3:
			p = molecule.WithAnchors(molecule.Protein(6, rng.Int63()), 3, 0.1)
		}
		rows := p.Constraints.Rows()
		rng.Shuffle(len(rows), func(a, b int) { rows[a], rows[b] = rows[b], rows[a] })
		cons := constraint.Of(rows...)
		if rng.Intn(3) == 0 {
			p.Tree = nil
		}
		q := &molecule.Problem{Name: p.Name, Atoms: p.Atoms, Constraints: cons, Tree: p.Tree}
		var warm *WarmStartRef
		if rng.Intn(2) == 0 {
			warm = &WarmStartRef{Job: fmt.Sprintf("s%d.job-%06d", rng.Intn(3), rng.Intn(1000))}
		}
		body := solveBody(t, q, SolveParams{Seed: rng.Int63n(100), KeepPosterior: i%2 == 0}, warm)
		if _, _, _, err := ReadSolveRequest(bytes.NewReader(body)); err != nil {
			t.Fatalf("case %d: generated request rejected: %v", i, err)
		}
		requireRoutingMatchesDaemon(t, body)
		// Shuffling constraints is not a topology change.
		key, _, err := SolveRouting(body)
		if err != nil || key != TopologyHash(p) {
			t.Fatalf("case %d: shuffled key %s (err %v), unshuffled hash %s", i, key, err, TopologyHash(p))
		}
	}
}

// TestTopologyHashGolden pins the digests themselves: they key persisted
// posteriors, so the renderer may be rewritten but not change its output.
func TestTopologyHashGolden(t *testing.T) {
	p := molecule.WithExclusions(molecule.WithAnchors(molecule.Protein(5, 3), 2, 0.1), 2, 0.5, 7)
	const topo = "33f23dba55af31b46601431cf02dbb2da7c7f77de70ffe693d782446d5d9dce7"
	const structure = "cdc041534a9011ea2e8dab558c0166ecef3b4773c2841a02bb91733705158c35"
	if got := TopologyHash(p); got != topo {
		t.Errorf("TopologyHash = %s, want %s", got, topo)
	}
	if got := StructureHash(p); got != structure {
		t.Errorf("StructureHash = %s, want %s", got, structure)
	}
}

func FuzzSolveRoutingMatchesDaemon(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add([]byte(`{"problem":` + seed + `}`))
		f.Add([]byte(`{"problem":` + seed + `,"warm_start":{"job":"s1.job-000001"}}`))
		f.Add([]byte(seed))
	}
	f.Add([]byte(`{"problem":{"atoms":[{"pos":[0,0,0]}]},"warm_start":{}}`))
	f.Add([]byte(`{"problem":{"atoms":[{},{}],"constraints":[{"type":"distance","i":0,"j":1,"sigma":1}]},` +
		`"problem":{"constraints":[{"type":"position","point":[0,0,0],"sigma":1}]}}`))
	f.Add(solveBody(f, molecule.WithAnchors(molecule.Protein(3, 1), 1, 0.1), SolveParams{}, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		requireRoutingMatchesDaemon(t, data)
	})
}

// warmTinyBody is the serve_warm_tiny request: an anchored one-base-pair
// helix warm-started from a retained job.
func warmTinyBody(tb testing.TB) []byte {
	return solveBody(tb, molecule.WithAnchors(molecule.Helix(1), 4, 0.05), SolveParams{}, &WarmStartRef{Job: "s1.job-000007"})
}

func BenchmarkSolveRouting(b *testing.B) {
	body := warmTinyBody(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SolveRouting(body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadRoute is the router's pass over a warm body its named shard
// answers: no key is rendered.
func BenchmarkReadRoute(b *testing.B) {
	body := warmTinyBody(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadRoute(body); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadSolveRequest(b *testing.B) {
	body := warmTinyBody(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := ReadSolveRequest(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopologyHash is the shard's hash of the serve_warm_tiny
// problem, which keys its plan cache.
func BenchmarkTopologyHash(b *testing.B) {
	p := molecule.WithAnchors(molecule.Helix(1), 4, 0.05)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		TopologyHash(p)
	}
}

// The two passes over a serve_warm_tiny body allocate per document, not
// per constraint: the records the scanner decodes into are recycled, and
// what is kept is columns. The bounds are the counts measured when this
// was written plus a quarter (128 and 53; before the columns, a request
// allocated 676 objects and a route 107 KB).
func TestWarmTinyReadAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled records at random")
	}
	body := warmTinyBody(t)
	read := testing.AllocsPerRun(50, func() {
		if _, _, _, err := ReadSolveRequest(bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	})
	route := testing.AllocsPerRun(50, func() {
		if _, err := ReadRoute(body); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ReadSolveRequest %v allocations, ReadRoute %v", read, route)
	if read > 160 || route > 66 {
		t.Fatalf("ReadSolveRequest %v allocations (want at most 160), ReadRoute %v (want at most 66)", read, route)
	}
}
