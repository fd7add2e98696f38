package filter

import (
	"errors"
	"math"
	"sync"

	"phmse/internal/faultinject"
	"phmse/internal/mat"
	"phmse/internal/par"
	"phmse/internal/pool"
	"phmse/internal/solvererr"
	"phmse/internal/trace"
)

// Updater applies constraint batches to a state estimate using the paper's
// Figure 1 procedure. The Team controls intra-update parallelism (the
// paper's intra-node axis); the Collector, when non-nil, accounts wall-clock
// time and flop counts per operation class exactly as Tables 3–6 do.
type Updater struct {
	Team *par.Team
	Rec  *trace.Collector
	// MaxStep, when positive, clamps the per-batch state update to the
	// given infinity-norm trust radius (Å). Strongly nonlinear observation
	// models (torsions, angles) can overshoot their linearization range
	// when the prior variance is large; the clamp is the standard iterated
	// EKF damping remedy. Zero disables it.
	MaxStep float64
	// Joseph selects the Joseph-form covariance update
	// C⁺ = (I−KH)·C⁻·(I−KH)ᵀ + K·R·Kᵀ, which preserves symmetry and
	// positive semidefiniteness under round-off at roughly three times the
	// m-m cost of the paper's simple form C⁺ = C⁻ − K·(H·C⁻).
	Joseph bool
	// GateSigma, when positive, applies innovation gating: any scalar
	// observation whose normalized innovation |ν|/√S exceeds the gate is
	// deweighted to near-irrelevance for this batch — the classic filter
	// defense against grossly wrong measurements. Gated observations are
	// counted in Gated; they are reconsidered at the next linearization.
	GateSigma float64
	// Gated accumulates the number of scalar observations gated out.
	Gated int
	// Guard enables numerical fault containment: a failed factorization
	// of the innovation covariance is retried with geometrically
	// escalated measurement noise (bounded ridge), and ApplyAll verifies
	// each batch's pending update before committing it, so a batch that
	// fails anyway — or would put NaN/Inf into the state — is refused and
	// quarantined for the rest of the cycle instead of aborting the
	// solve. Control.Updater enables it unless NoGuard is set; the zero
	// value keeps the raw fail-fast procedure of the paper (what the
	// direct kernel benchmarks measure).
	Guard bool
	// Diag, when non-nil, accumulates containment diagnostics (ridge
	// retries, rollbacks, quarantined batches).
	Diag *Diagnostics
	// Tag labels the solve for fault-injection sites (normally the
	// problem name) and Node names the hierarchy node this updater works
	// for ("" in flat mode).
	Tag  string
	Node string
	// Cycle is the 1-based constraint-application cycle, set by the
	// solves for diagnostics and injection sites.
	Cycle int

	// batchIdx is the index of the batch currently applied, maintained by
	// ApplyAll for diagnostics and injection sites.
	batchIdx int

	// ws holds grown scratch buffers reused across batches — the Go
	// counterpart of the paper's §5 observation that careful memory
	// management of the per-node temporaries pays off. It is leased
	// lazily from a process-wide pool so the arena survives the Updater
	// itself and is reused across solves; ReleaseWorkspace returns it.
	// An Updater is not safe for concurrent use (the hierarchical solver
	// creates one per node).
	ws *workspace

	// seqTeam caches the sequential fallback team constructed when Team is
	// nil, so repeated Apply calls don't allocate a fresh one each batch.
	seqTeam *par.Team
}

// workspace is the per-updater scratch arena: backing slices grow to the
// high-water mark and are re-sliced per batch.
type workspace struct {
	aBuf, haBuf, sBuf, kBuf, wBuf []float64
	nu, dx                        []float64
}

// wsPool recycles workspace arenas across Updaters (and therefore across
// jobs): the hierarchical solver builds a fresh Updater per node per
// cycle, and without reuse each one regrows its m×m innovation and n×m
// gain scratch from nothing.
var wsPool = sync.Pool{New: func() any { return new(workspace) }}

// scratch returns the updater's workspace, leasing one from the pool on
// first use. Pooled arenas come back with their grown capacity intact;
// every user fully overwrites the region it re-slices.
func (u *Updater) scratch() *workspace {
	if u.ws == nil {
		if pool.Enabled() {
			u.ws = wsPool.Get().(*workspace)
		} else {
			u.ws = new(workspace)
		}
	}
	return u.ws
}

// ReleaseWorkspace returns the updater's scratch arena to the process-wide
// pool. The Updater must not be used again afterwards. Safe to call when
// no workspace was ever leased.
func (u *Updater) ReleaseWorkspace() {
	if u.ws != nil && pool.Enabled() {
		wsPool.Put(u.ws)
	}
	u.ws = nil
}

// matOfDirty slices an r×c matrix out of a grown backing buffer, without
// zeroing it: every destination here (A, H·A, S, K and K·L below) is fully
// overwritten by the next kernel before it is read. The buffer may hold
// stale values from the previous batch.
func matOfDirty(buf *[]float64, r, c int) *mat.Mat {
	need := r * c
	if cap(*buf) < need {
		*buf = make([]float64, need)
	}
	*buf = (*buf)[:need]
	return &mat.Mat{Rows: r, Cols: c, Stride: c, Data: *buf}
}

func vecOf(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func (u *Updater) team() *par.Team {
	if u.Team != nil {
		return u.Team
	}
	if u.seqTeam == nil {
		u.seqTeam = par.NewTeam(1)
	}
	return u.seqTeam
}

// Apply performs one measurement update of s with the batch (Figure 1):
//
//	H  = ∂h/∂x at x⁻            (sparse, m×n)
//	A  = C⁻Hᵀ                   (d-s)
//	S  = H·A + R                (d-s)
//	S  = L·Lᵀ                   (chol)
//	K  = A·S⁻¹                  (sys: two triangular solves per row)
//	x⁺ = x⁻ + K·(z − h(x⁻))     (m-v, vec)
//	C⁺ = C⁻ − K·Aᵀ              (m-m)
//
// Gated constraints that are inactive at x⁻ are skipped. Apply reports
// (handled, err): handled is the number of scalar observations applied.
// Only the lower triangle of C is read; on return C is exactly symmetric.
func (u *Updater) Apply(s *State, b *Batch) (int, error) {
	m, err := u.apply(s, b, nil)
	if m > 0 {
		u.Mirror(s)
	}
	return m, err
}

// Mirror completes C from its lower triangle, the only part the per-batch
// update maintains. It is accounted with the covariance update it closes.
func (u *Updater) Mirror(s *State) {
	u.Rec.Timed(trace.MatMat, 0, func() { mat.MirrorLowerPar(u.team(), s.C) })
}

// apply is Apply on the lower triangle of C alone: it neither reads nor
// writes the strict upper triangle, which nothing between two batches of a
// node pass looks at (the d-s product takes C[i][k], k > i, from C[k][i]).
// With a non-nil bound it is also the guard's commit point: the pending
// update is verified after it has been computed and before x or C are
// written, and a batch that fails returns errRefused with the state
// untouched.
func (u *Updater) apply(s *State, b *Batch, bound *stateBound) (int, error) {
	asm := b.assemble(s)
	if asm == nil {
		return 0, nil
	}
	team := u.team()
	ws := u.scratch()
	n := s.Dim()
	m := len(asm.z)
	nnz := float64(asm.jac.NNZ())

	// A = C·Hᵀ and H·A: the dense-sparse products (computed once; trust-
	// region retries below only redo the small m×m work). A is formed
	// reading only the lower triangle of C.
	a := matOfDirty(&ws.aBuf, n, m)
	ha := matOfDirty(&ws.haBuf, m, m)
	u.Rec.Timed(trace.DenseSparse, 2*float64(n)*nnz+2*nnz*float64(m), func() {
		asm.jac.DenseMulTSymPar(team, a, s.C)
		asm.jac.MulDensePar(team, ha, a)
	})

	// Innovation ν = z − h(x⁻); 2π-periodic observations (torsions) wrap
	// into (−π, π] so the estimate is pulled the short way around.
	nu := vecOf(&ws.nu, m)
	u.Rec.Timed(trace.VecOp, float64(m), func() {
		mat.SubVec(nu, asm.z, asm.h)
		for i, w := range asm.wrap {
			if w {
				nu[i] = wrapAngle(nu[i])
			}
		}
	})

	// Innovation gating: deweight scalar rows whose innovation is wildly
	// inconsistent with the predicted uncertainty S_ii = (H·A)_ii + R_ii.
	if u.GateSigma > 0 {
		for i := 0; i < m; i++ {
			sii := ha.At(i, i) + asm.r[i]
			if sii <= 0 {
				continue
			}
			if nu[i]*nu[i] > u.GateSigma*u.GateSigma*sii {
				asm.r[i] *= 1e6
				u.Gated++
			}
		}
	}

	// Trust region by measurement deweighting: if the proposed step leaves
	// the MaxStep radius, the batch is reapplied with inflated measurement
	// noise R ← λ·R — a consistent Kalman update for noisier data, unlike
	// clamping the step vector, which would desynchronize the covariance
	// from the mean. λ grows geometrically until the step fits.
	sMat := matOfDirty(&ws.sBuf, m, m)
	k := matOfDirty(&ws.kBuf, n, m)
	dx := vecOf(&ws.dx, n)
	lambda := 1.0
	// Ridge recovery: when S fails to factor (indefinite under round-off,
	// or a forced injection), the batch is retried with the measurement
	// noise inflated ×ridgeFactor and a small absolute jitter added to the
	// diagonal — the inflated-noise re-application move of the annealing
	// literature. Escalation is bounded; a batch that stays indefinite is
	// reported as a typed error for the caller to quarantine.
	ridge, jitter := 1.0, 0.0
	ridgeTries := 0
	const maxRetries = 6
	for try := 0; ; try++ {
		// S = H·A + λ·ridge·R (+ jitter·I) and its factorization.
		u.Rec.Timed(trace.VecOp, float64(m), func() {
			sMat.CopyFrom(ha)
			for i := 0; i < m; i++ {
				sMat.Set(i, i, sMat.At(i, i)+lambda*ridge*asm.r[i]+jitter)
			}
		})
		var cholErr error
		if h := faultinject.Installed(); h != nil && h.Cholesky != nil && h.Cholesky(u.site()) {
			cholErr = mat.ErrNotPositiveDefinite
		} else {
			u.Rec.Timed(trace.Chol, float64(m)*float64(m)*float64(m)/3, func() {
				cholErr = mat.CholeskyPar(team, sMat)
			})
		}
		if cholErr != nil {
			if u.Guard && ridgeTries < maxRidgeRetries {
				ridgeTries++
				ridge *= ridgeFactor
				if jitter == 0 {
					// Scale the absolute jitter to the system's magnitude so
					// it moves the smallest eigenvalue meaningfully even when
					// R itself is zero or tiny.
					jitter = ridgeJitter * (1 + maxAbsDiag(ha))
				} else {
					jitter *= ridgeFactor
				}
				u.Diag.AddRidgeRetry()
				continue
			}
			return 0, &solvererr.Indefinite{Node: u.Node, Batch: u.batchIdx, Dim: m, Retries: ridgeTries, Err: cholErr}
		}
		// Filter gain K = A·S⁻¹ via triangular solves on each state row.
		u.Rec.Timed(trace.VecOp, float64(n*m), func() { k.CopyFrom(a) })
		u.Rec.Timed(trace.Solve, 2*float64(n)*float64(m)*float64(m), func() {
			mat.SolveCholRowsPar(team, sMat, k)
		})
		u.Rec.Timed(trace.MatVec, 2*float64(n)*float64(m), func() {
			mat.MulVecPar(team, dx, k, nu)
		})
		if u.MaxStep <= 0 || mat.NormInf(dx) <= u.MaxStep || try >= maxRetries {
			break
		}
		lambda *= 4
	}
	// Covariance update, symmetry-aware: the exact result is symmetric by
	// construction (K·Aᵀ = A·S⁻¹·Aᵀ), so only the lower triangle is
	// computed — half the flops of the full rectangular product, and no
	// symmetrization sweep. The default is the paper's simple form
	// C ← C − K·Aᵀ; Joseph form expands algebraically to
	// C − K·Aᵀ − A·Kᵀ + (K·L)(K·L)ᵀ using the Cholesky factor L of the
	// innovation covariance, since K·S·Kᵀ = (K·L)(K·L)ᵀ.
	fn, fm := float64(n), float64(m)
	var w *mat.Mat
	if u.Joseph {
		w = matOfDirty(&ws.wBuf, n, m)
		u.Rec.Timed(trace.MatMat, 2*fn*fm*fm, func() {
			mat.MulPar(team, w, k, sMat) // sMat holds L after factorization
		})
	}

	if bound != nil {
		if h := faultinject.Installed(); h != nil && h.Poison != nil && h.Poison(u.site()) {
			dx[0] = math.NaN()
		}
		admitted := false
		u.Rec.Timed(trace.VecOp, 0, func() { admitted = bound.admit(dx, k, a, w) })
		if !admitted {
			return 0, errRefused
		}
	}

	u.Rec.Timed(trace.VecOp, float64(n), func() {
		mat.Axpy(1, dx, s.X)
	})
	if u.Joseph {
		// n(n+1)m for the triangular (K·L)(K·L)ᵀ, 2n(n+1)m for the
		// triangular rank-2k cross terms — versus 6n²m before symmetry
		// exploitation.
		u.Rec.Timed(trace.MatMat, 3*fn*(fn+1)*fm, func() {
			mat.SyrkAddPar(team, s.C, w)
			mat.Syr2kPairSubLowerPar(team, s.C, k, a)
		})
	} else {
		// n(n+1)m — versus 2n²m before symmetry exploitation.
		u.Rec.Timed(trace.MatMat, fn*(fn+1)*fm, func() {
			mat.Syr2kSubLowerPar(team, s.C, k, a)
		})
	}
	return m, nil
}

// wrapAngle maps an angular difference into (−π, π]. math.Remainder lands in
// [−π, π] in one step, so a wildly wrong torsion innovation costs the same
// as a mild one (the old subtraction loop spun once per 2π of error).
func wrapAngle(d float64) float64 {
	r := math.Remainder(d, 2*math.Pi)
	if r <= -math.Pi {
		r += 2 * math.Pi
	}
	return r
}

// Bounds of the ridge recovery: at most maxRidgeRetries re-factorizations
// per batch, each inflating the measurement noise by ridgeFactor and the
// absolute diagonal jitter by the same factor from a ridgeJitter-scaled
// start.
const (
	maxRidgeRetries = 3
	ridgeFactor     = 10.0
	ridgeJitter     = 1e-8
)

// maxAbsDiag returns the largest |diagonal| entry of a square matrix.
func maxAbsDiag(a *mat.Mat) float64 {
	v := 0.0
	for i := 0; i < a.Rows; i++ {
		if d := math.Abs(a.At(i, i)); d > v {
			v = d
		}
	}
	return v
}

// site describes the updater's current position for fault injection.
func (u *Updater) site() faultinject.Site {
	return faultinject.Site{Tag: u.Tag, Node: u.Node, Batch: u.batchIdx, Cycle: u.Cycle}
}

// stateBound is the guard's running proof that the state is finite: upper
// bounds on max|x| and on max|C| over the lower triangle. A batch writes
// nothing but x += dx and C ∓= (rank-m products of K, A and K·L), so from a
// finite state under the bounds (ScanBound, the base of the induction)
// the next state is decidable from the pending update alone: if K, A and
// dx are finite and the bounds plus the largest possible change stay under
// finiteLimit, no product, partial sum or committed entry can overflow, and
// without overflow finite operands cannot produce NaN. The bounds then
// advance by that change (admit), which carries the proof to the next
// batch without ever looking at C again.
type stateBound struct{ x, c float64 }

// Bound is the proof as it travels between node passes: what ApplyLower
// takes as its base and hands back advanced. A hierarchy node's prior is
// its children's posteriors on the diagonal, zero cross blocks and its own
// atoms' priors, so the Join of the children's final bounds with a scan of
// the directly owned block bounds it — only leaves are ever scanned.
type Bound = stateBound

// Join returns the bound of a state made of two blocks that b and o bound.
func (b Bound) Join(o Bound) Bound {
	return Bound{x: math.Max(b.x, o.x), c: math.Max(b.c, o.c)}
}

// finite reports whether the bounded state is finite and under
// finiteLimit; written so that NaN is not.
func (b Bound) finite() bool { return b.x <= finiteLimit && b.c <= finiteLimit }

// finiteLimit is the magnitude the guard keeps every state entry under. It
// is far beyond any physical coordinate or variance and far enough below
// the float64 range (≈1.8e308) that sums of m products of two admitted
// magnitudes cannot reach it.
const finiteLimit = 1e150

// errRefused is apply's report that the guard refused to commit a batch.
var errRefused = errors.New("filter: batch would leave the state non-finite")

// maxAbs folds the largest magnitude of vs into m; +Inf when any entry is
// NaN or ±Inf.
func maxAbs(m float64, vs []float64) float64 {
	for _, v := range vs {
		if a := math.Abs(v); !(a <= m) {
			if a != a {
				return math.Inf(1)
			}
			m = a
		}
	}
	return m
}

// ScanBound scans x and the lower triangle of C and reports their bounds;
// anything non-finite in either makes the bound infinite, and no batch is
// admitted on an infinite bound.
func ScanBound(s *State) Bound {
	b := Bound{x: maxAbs(0, s.X)}
	for i := 0; i < s.C.Rows; i++ {
		b.c = maxAbs(b.c, s.C.Row(i)[:i+1])
	}
	return b
}

// admit decides, before anything is written, whether committing the pending
// update — step dx, gain k, a = C·Hᵀ, and w = K·L in Joseph form (nil
// otherwise) — keeps the state finite, and advances the bounds if so. One
// O(nm) scan; a refused update leaves the bounds, like the state, as they
// were.
func (b *stateBound) admit(dx []float64, k, a, w *mat.Mat) bool {
	m := float64(k.Cols)
	change := m * maxAbs(0, k.Data) * maxAbs(0, a.Data)
	if w != nil {
		mw := maxAbs(0, w.Data)
		change = 2*change + m*mw*mw
	}
	next := stateBound{x: b.x + maxAbs(0, dx), c: b.c + change}
	if !next.finite() {
		return false
	}
	*b = next
	return true
}

// ApplyAll applies every batch in order, returning the total number of
// scalar observations applied, and leaves C exactly symmetric: the batches
// update its lower triangle only, and one mirror pass closes the node pass.
// It is ApplyLower from a scan of the prior, then Mirror.
func (u *Updater) ApplyAll(s *State, batches []*Batch) (int, error) {
	var prior Bound
	if u.Guard {
		u.Rec.Timed(trace.VecOp, 0, func() { prior = ScanBound(s) })
	}
	total, _, err := u.ApplyLower(s, batches, prior)
	if total > 0 {
		u.Mirror(s)
	}
	return total, err
}

// ApplyLower applies every batch in order on the lower triangle of C alone
// — the strict upper triangle is neither read nor written, so s may be a
// diagonal view of a larger state whose other blocks someone else owns —
// and returns the number of scalar observations applied.
//
// With Guard set, it additionally contains per-batch numerical faults: a
// batch whose innovation covariance stays indefinite through every ridge
// retry is skipped (quarantined) for this pass, and so is a batch whose
// update would put NaN/Inf into the state — it is refused before anything
// is written (see stateBound), so (x, C) stay bit-identical. prior must
// bound s as it stands; a prior that is not finite refuses the whole pass
// without factorizing anything. The bound comes back advanced by every
// admitted batch. All are recorded in Diag; quarantined batches are retried
// at the next cycle's fresh linearization point. Errors other than these
// containable classes still abort. Without Guard, prior is ignored.
func (u *Updater) ApplyLower(s *State, batches []*Batch, prior Bound) (int, Bound, error) {
	var bound *stateBound
	if u.Guard {
		if !prior.finite() {
			for bi := range batches {
				u.Diag.AddQuarantine(u.Node, bi, u.Cycle, ReasonNonFinite)
			}
			return 0, prior, nil
		}
		bound = &prior
	}
	total := 0
	var failed error
pass:
	for bi, b := range batches {
		u.batchIdx = bi
		m, err := u.apply(s, b, bound)
		switch {
		case err == nil:
			total += m
			u.Diag.AddApplied(m)
		case err == errRefused:
			u.Diag.AddQuarantine(u.Node, bi, u.Cycle, ReasonNonFinite)
		case u.Guard && errors.Is(err, solvererr.ErrIndefinite):
			// The factorization failed before x or C were touched; exclude
			// the batch from the rest of this pass.
			u.Diag.AddQuarantine(u.Node, bi, u.Cycle, ReasonIndefinite)
		default:
			failed = err
			break pass
		}
	}
	return total, prior, failed
}
