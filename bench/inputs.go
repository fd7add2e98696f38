package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"math/rand"

	"phmse/internal/encode"
	"phmse/internal/geom"
	"phmse/internal/molecule"
)

// Everything a workload feeds the programs is generated here from the
// workload's fixed shape and the --seed. The shape (which molecules, how
// many constraints, which perturbation seeds start the cold solves) is
// constant per workload, because the iterated filter's cycle count — and
// so the work of one job — swings several-fold with it; the seed draws
// what may vary without changing the amount of work: the starting
// conformation of the fixed-length library solve, and the order in which
// clients visit their topologies.

// riboStructureSeed fixes the synthetic ribosome's random walk: the paper
// scale problem, 866 atoms and 6 850 scalar constraints.
const riboStructureSeed = 1996

// Cold convergence is sensitive to the starting perturbation: seeds 17–19
// at σ = 0.4 Å converge on every topology used here, in a number of cycles
// that depends on topology and seed. Each topology is given the one of the
// three seeds that makes job costs as even as the topologies allow
// (helix-1bp: 15–28 cycles, helix-2bp: 20–24), so that the order in which
// a window happens to deal them matters little.
var (
	tinySeeds  = [tinyCount]int64{17, 19, 18, 18, 18, 18, 18, 19}
	smallSeeds = [smallCount]int64{19, 17, 18, 18}
)

// tinyParams and smallParams are the solver parameters of the cold
// helix-1bp and helix-2bp serving jobs.
func tinyParams(k int) encode.SolveParams {
	return encode.SolveParams{Perturb: 0.4, Seed: tinySeeds[k]}
}

func smallParams(k int) encode.SolveParams {
	return encode.SolveParams{Perturb: 0.4, Seed: smallSeeds[k]}
}

// libProblem returns the library workload's problem.
func libProblem(smoke bool) *molecule.Problem {
	if smoke {
		return molecule.Ribo30SWith(molecule.Ribo30SConfig{Helices: 8, Coils: 8, Proteins: 4, Seed: riboStructureSeed})
	}
	return molecule.Ribo30S(riboStructureSeed)
}

// helixTopologies returns n anchored variants of a bp-base-pair helix.
// Each anchor count is a distinct topology hash, so each is its own plan
// cache entry, ring position and posterior.
func helixTopologies(bp, n int) []*molecule.Problem {
	out := make([]*molecule.Problem, n)
	for k := range out {
		out[k] = molecule.WithAnchors(molecule.Helix(bp), 4+k, 0.05)
	}
	return out
}

// requestBody assembles a solve request exactly as internal/client does
// (TestRequestBodyMatchesClient pins that), so the per-layer replays and
// the input digest work on the bytes the workload sends.
func requestBody(p *molecule.Problem, params encode.SolveParams, warm *encode.WarmStartRef) ([]byte, error) {
	var buf bytes.Buffer
	if err := encode.WriteProblem(&buf, p); err != nil {
		return nil, fmt.Errorf("encoding problem: %w", err)
	}
	return json.Marshal(encode.SolveRequest{Problem: json.RawMessage(buf.Bytes()), Params: params, WarmStart: warm})
}

// digest accumulates the sha256 over every generated input, so two runs
// can prove they sent the same bytes.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) bytes(b []byte) {
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(b)))
	d.h.Write(n[:])
	d.h.Write(b)
}

func (d *digest) ints(xs ...int) {
	for _, x := range xs {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(int64(x)))
		d.h.Write(n[:])
	}
}

func (d *digest) positions(pos []geom.Vec3) {
	for _, v := range pos {
		for _, c := range v {
			var n [8]byte
			binary.BigEndian.PutUint64(n[:], math.Float64bits(c))
			d.h.Write(n[:])
		}
	}
}

func (d *digest) request(p *molecule.Problem, params encode.SolveParams) error {
	body, err := requestBody(p, params, nil)
	if err != nil {
		return err
	}
	d.bytes(body)
	return nil
}

func (d *digest) hex() string { return hex.EncodeToString(d.h.Sum(nil)) }

// digestNumber folds a hex digest's first 48 bits into a float64-exact
// number, the form the metrics line can carry.
func digestNumber(hexDigest string) float64 {
	raw, err := hex.DecodeString(hexDigest)
	if err != nil || len(raw) < 6 {
		return 0
	}
	var v uint64
	for _, b := range raw[:6] {
		v = v<<8 | uint64(b)
	}
	return float64(v)
}

// deck deals the integers 0..n-1 in a seeded random order, reshuffling
// whenever it runs out: every value is drawn equally often over a window,
// which keeps the work of a window steady where independent draws would
// not.
type deck struct {
	rng   *rand.Rand
	cards []int
	next  int
}

func newDeck(rng *rand.Rand, n int) *deck {
	d := &deck{rng: rng, cards: make([]int, n), next: n}
	for i := range d.cards {
		d.cards[i] = i
	}
	return d
}

func (d *deck) draw() int {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	c := d.cards[d.next]
	d.next++
	return c
}

// clientRNG derives a client's private generator from the run seed.
func clientRNG(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
}

// inputDigest hashes everything the named workload generates from seed:
// every request body (or, for the library workload, the problem document
// and the starting conformation) and the first draws of each client's
// seeded stream.
func inputDigest(workload string, seed int64, smoke bool) (string, error) {
	d := newDigest()
	requests := func(problems []*molecule.Problem, params func(int) encode.SolveParams) error {
		for k, p := range problems {
			if err := d.request(p, params(k)); err != nil {
				return err
			}
		}
		return nil
	}
	var err error
	switch workload {
	case wlLib:
		p := libProblem(smoke)
		var doc bytes.Buffer
		if err = encode.WriteProblem(&doc, p); err == nil {
			d.bytes(doc.Bytes())
			d.positions(molecule.Perturbed(p, libPerturb, seed))
		}
	case wlWarmTiny:
		err = requests(helixTopologies(1, tinyCount), func(int) encode.SolveParams { return encode.SolveParams{} })
		for c := 0; c < serveClients && err == nil; c++ {
			order := newDeck(clientRNG(seed, c), tinyCount)
			for i := 0; i < tinyCount; i++ {
				d.ints(order.draw())
			}
		}
	case wlColdBurst:
		if err = requests(helixTopologies(1, tinyCount), tinyParams); err == nil {
			err = requests(helixTopologies(2, smallCount), smallParams)
		}
		dealer := newRoundDealer(clientRNG(seed, serveClients))
		for i := 0; i < 2 && err == nil; i++ {
			for _, burst := range dealer.next() {
				for _, pk := range burst {
					d.ints(pk.k)
				}
			}
		}
	case wlRebalance:
		err = requests(rebalanceProblems(smoke), rebalanceSeedParams)
		d.ints(int(clientRNG(seed, 0).Int63() >> 16))
	default:
		err = fmt.Errorf("unknown workload %q", workload)
	}
	return d.hex(), err
}
