package encode

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"phmse/internal/mat"
)

// fuzzSeeds is the seed corpus: valid documents, truncations, type
// confusion, index abuse, and numeric edge cases. Malformed input must
// yield an error, never a panic; accepted input must re-serialize.
var fuzzSeeds = []string{
	`{}`,
	`{"name":"x"}`,
	`{"atoms":[{"pos":[0,0,0]},{"pos":[1,0,0]}],"constraints":[{"type":"distance","i":0,"j":1,"target":1,"sigma":0.1}]}`,
	`{"atoms":[{"pos":[0,0,0]}],"constraints":[{"type":"position","i":0,"point":[0,0,0],"sigma":0.1}]}`,
	`{"atoms":[{"pos":[0,0,0]},{"pos":[1,0,0]},{"pos":[0,1,0]},{"pos":[0,0,1]}],` +
		`"constraints":[{"type":"torsion","i":0,"j":1,"k":2,"l":3,"target":0.5,"sigma":0.2}],` +
		`"tree":{"children":[{"atoms":[0,1]},{"atoms":[2,3]}]}}`,
	`{"atoms":[{"pos":[0,0,0]}],"constraints":[{"type":"distance","i":0,"j":99,"sigma":1}]}`,
	`{"atoms":[{"pos":[0,0,0]}],"constraints":[{"type":"distance","i":-1,"j":0,"sigma":1}]}`,
	`{"atoms":[{"pos":[0,0,0]}],"constraints":[{"type":"warp","i":0,"sigma":1}]}`,
	`{"atoms":[{"pos":[0,0,0]},{"pos":[1,0,0]}],"constraints":[{"type":"distance","i":0,"j":1,"sigma":0}]}`,
	`{"atoms":[{"pos":[0,0,0]},{"pos":[1,0,0]}],"constraints":[{"type":"distance","i":0,"j":1,"sigma":-5}]}`,
	`{"atoms":[{"pos":[0,0,0]}],"constraints":[{"type":"position","i":0,"sigma":1}]}`,
	`{"atoms":`,
	`{"atoms":[{"pos":[0,0,0]}],"tree":{"children":[{"atoms":[0]},{"atoms":[0]}]}}`,
	`{"atoms":[{"pos":[1e308,-1e308,0]}]}`,
	`[1,2,3]`,
	`null`,
	`"problem"`,
	"\x00\xff\xfe",
}

func FuzzReadProblem(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadProblemBytes(data) // must not panic
		if err != nil {
			return
		}
		// Whatever parses must serialize back and re-parse to the same
		// topology.
		var buf bytes.Buffer
		if err := WriteProblem(&buf, p); err != nil {
			t.Fatalf("accepted problem failed to serialize: %v", err)
		}
		q, err := ReadProblemBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("re-serialized problem failed to parse: %v", err)
		}
		if TopologyHash(p) != TopologyHash(q) {
			t.Fatal("round trip changed the topology hash")
		}
	})
}

func FuzzReadSolveRequest(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add([]byte(`{"problem":` + seed + `}`))
		f.Add([]byte(seed))
	}
	f.Add([]byte(`{"problem":{"atoms":[{"pos":[0,0,0]}]},"params":{"mode":"flat","timeout_ms":100}}`))
	f.Add([]byte(`{"problem":{"atoms":[{"pos":[0,0,0]}]},"params":{"mode":"sideways"}}`))
	f.Add([]byte(`{"problem":{"atoms":[{"pos":[0,0,0]}]},"warm_start":{"job":"job-000001"}}`))
	f.Add([]byte(`{"problem":{"atoms":[{"pos":[0,0,0]}]},"warm_start":{}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, params, warm, err := ReadSolveRequest(bytes.NewReader(data)) // must not panic
		if err != nil {
			return
		}
		if warm != nil && warm.Job == "" {
			t.Fatal("accepted warm_start reference without a job id")
		}
		if p == nil || len(p.Atoms) == 0 {
			t.Fatal("accepted request without a usable problem")
		}
		switch params.Mode {
		case "", "flat", "hier":
		default:
			t.Fatalf("accepted unknown mode %q", params.Mode)
		}
	})
}

// The fuzz corpus doubles as a table test so `go test` (without -fuzz)
// exercises every seed through the full accept/reject classification.
func TestFuzzSeedsNeverPanic(t *testing.T) {
	for i, seed := range fuzzSeeds {
		p, err := ReadProblem(strings.NewReader(seed))
		if err != nil {
			continue
		}
		var buf bytes.Buffer
		if err := WriteProblem(&buf, p); err != nil {
			t.Errorf("seed %d: accepted but not serializable: %v", i, err)
		}
	}
}

// FuzzPosteriorDoc: the posterior document is read from the network (PUT
// /v1/posteriors/{id}), from snapshot directories and from -resume files.
// Arbitrary bytes must never panic the decode, and whatever Decode accepts
// must survive re-encoding with the same positions, variances and
// covariance presence — the transfer path re-serializes every posterior it
// moves.
func FuzzPosteriorDoc(f *testing.F) {
	pos, coordVar, cov := samplePosterior()
	for _, c := range []*mat.Mat{nil, cov} { // what a hierarchical and a flat job keep
		doc := NewPosteriorDoc(pos, coordVar, c)
		doc.Job, doc.StructureHash = "s1.job-000001", "bbbb"
		seed, err := json.Marshal(doc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte(`{"atoms":2,"positions":[[0,0,0]],"coord_variances":[1,1,1]}`))
	f.Add([]byte(`{"positions":[[0,0,0]],"coord_variances":[1,-1,1]}`))
	f.Add([]byte(`{"positions":[[0,0,0]],"coord_variances":[1,1,1],"cov":[[1,0,0],[0,1],[0,0,1]]}`))
	f.Add([]byte(`{"positions":[[0,0,0]],"coord_variances":[1,1,1],"cov":[]}`))
	f.Add([]byte(`{"positions":[[1e308,0]],"coord_variances":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var doc PosteriorDoc
		if json.Unmarshal(data, &doc) != nil {
			return
		}
		pos, coordVar, cov, err := doc.Decode() // must not panic
		if err != nil {
			return
		}
		out, err := json.Marshal(NewPosteriorDoc(pos, coordVar, cov))
		if err != nil {
			t.Fatalf("accepted posterior failed to serialize: %v", err)
		}
		var back PosteriorDoc
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("re-serialized posterior failed to parse: %v", err)
		}
		pos2, coordVar2, cov2, err := back.Decode()
		if err != nil {
			t.Fatalf("re-serialized posterior rejected: %v", err)
		}
		if !slices.Equal(pos, pos2) || !slices.Equal(coordVar, coordVar2) {
			t.Fatal("round trip changed positions or variances")
		}
		if (cov == nil) != (cov2 == nil) || (cov != nil && !slices.Equal(cov.Data, cov2.Data)) {
			t.Fatal("round trip changed the covariance")
		}
	})
}
