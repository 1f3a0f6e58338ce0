package fluid

import (
	"math"
	"runtime"
	"testing"
)

// TestStepperMatchesIntegrate is the equivalence property test: stepping the
// PERT/RED system one step at a time must reproduce the batch Integrate
// trajectory bit for bit (Integrate is built on Stepper, but this pins the
// incremental API — interleaved AdvanceTo calls with uneven targets — against
// the straight loop).
func TestStepperMatchesIntegrate(t *testing.T) {
	for _, r := range []float64{0.1, 0.4, 1.0} {
		p := fig13Params(r)
		sys := p.System()
		h := 1e-3

		var batchT []float64
		var batchX [][]float64
		sys.Integrate([]float64{1, 1, 1}, 0, 20, h, func(tt float64, x []float64) {
			batchT = append(batchT, tt)
			batchX = append(batchX, append([]float64(nil), x...))
		})

		st := NewStepper(sys, []float64{1, 1, 1}, 0, h)
		// Advance in deliberately uneven increments, including no-op and
		// mid-step targets, to exercise AdvanceTo's rounding.
		targets := []float64{0.0007, 0.5, 0.5, 3.33333, 7, 12.0004, 20}
		idx := 0
		check := func() {
			n := st.Steps()
			if n >= len(batchT) {
				t.Fatalf("R=%v: stepper ran past batch trajectory (step %d)", r, n)
			}
			if st.Time() != batchT[n] {
				t.Fatalf("R=%v step %d: time %v != batch %v", r, n, st.Time(), batchT[n])
			}
			for i, v := range st.State() {
				if v != batchX[n][i] {
					t.Fatalf("R=%v step %d x[%d]: %v != batch %v", r, n, i, v, batchX[n][i])
				}
			}
			idx++
		}
		for _, tt := range targets {
			st.AdvanceTo(tt)
			check()
		}
		if st.Steps() != len(batchT)-1 {
			t.Fatalf("R=%v: stepper took %d steps, batch %d", r, st.Steps(), len(batchT)-1)
		}
	}
}

// TestStepperStateAt pins delayed-state lookup: for the pure decay system the
// state lag seconds ago is e^{lag} times the current state, and lags reaching
// before t0 return the constant initial history.
func TestStepperStateAt(t *testing.T) {
	sys := &System{
		Dim:    1,
		MaxLag: 0.5,
		F: func(_ float64, x []float64, _ func(float64, int) float64, dx []float64) {
			dx[0] = -x[0]
		},
	}
	st := NewStepper(sys, []float64{1}, 0, 1e-3)
	st.AdvanceTo(2)
	now := st.State()[0]
	for _, lag := range []float64{0.1, 0.25, 0.5} {
		got := st.StateAt(lag, 0)
		want := now * math.Exp(lag)
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("StateAt(%v) = %v, want %v", lag, got, want)
		}
	}
	// Before history began: the constant initial value.
	st2 := NewStepper(sys, []float64{7}, 0, 1e-3)
	st2.AdvanceTo(0.01)
	if got := st2.StateAt(0.4, 0); got != 7 {
		t.Errorf("pre-t0 StateAt = %v, want the initial state 7", got)
	}
}

// TestStepperBoundedHistory is the long-horizon memory regression test for
// the formerly unbounded DDE history: integrating 2000× past MaxLag must not
// grow the ring (zero allocations per step once warm) and must keep heap
// growth far below what O(steps) history would need.
func TestStepperBoundedHistory(t *testing.T) {
	sys := &System{
		Dim:    3,
		MaxLag: 0.1,
		F: func(_ float64, x []float64, d func(float64, int) float64, dx []float64) {
			dx[0] = d(0.1, 1) - x[0]
			dx[1] = -x[1]
			dx[2] = x[0] - x[2]
		},
	}
	h := 1e-3
	st := NewStepper(sys, []float64{1, 1, 1}, 0, h)
	st.AdvanceTo(1) // warm the ring past MaxLag
	allocs := testing.AllocsPerRun(200, func() { st.Step() })
	if allocs != 0 {
		t.Errorf("warm Step allocates %v objects per run, want 0", allocs)
	}

	// Batch path: 200 s at h=1e-3 is 200k steps; bounded history keeps the
	// live heap near histLen (≈108 vectors), not 200k vectors (~14 MB here,
	// scaled up by dimension in real use).
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	got := sys.Integrate([]float64{1, 1, 1}, 0, 200, h, nil)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if got[1] > 1e-9 {
		t.Fatalf("decay component did not decay: %v", got[1])
	}
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if grew > 1<<20 {
		t.Errorf("200k-step Integrate grew the live heap by %d bytes; history is unbounded again", grew)
	}
}

// systemRef is the plain PERT/RED system (14) written out on its own, without
// the packet-arrival term, the shared marking law or the shared clamp, kept
// as the naive reference HybridSystem must reproduce bit for bit.
func systemRef(p PERTParams) *System {
	L := p.L()
	K := p.K()
	return &System{
		Dim:    3,
		MaxLag: p.R,
		F: func(_ float64, x []float64, delayed func(float64, int) float64, dx []float64) {
			wLag := delayed(p.R, 0)
			tqLag := delayed(p.R, 2)
			prob := L * (tqLag - p.Tmin)
			if prob < 0 {
				prob = 0
			} else if prob > 1 {
				prob = 1
			}
			dx[0] = 1/p.R - prob*x[0]*wLag/(2*p.R)
			dx[1] = p.N/(p.R*p.C)*x[0] - 1
			dx[2] = K*x[2] - K*x[1]
		},
		Clamp: func(x []float64) {
			if x[0] < 0 {
				x[0] = 0
			}
			if x[1] < 0 {
				x[1] = 0
			}
			if x[2] < 0 {
				x[2] = 0
			}
		},
	}
}

// TestHybridSystemZeroRateMatchesPlain pins the metamorphic guarantee at the
// model level: with no packet traffic (no rate source, or one that reads 0)
// the hybrid system integrates to the exact trajectory of the plain PERT/RED
// system, here its independently written reference.
func TestHybridSystemZeroRateMatchesPlain(t *testing.T) {
	p := fig13Params(0.4)
	plain := systemRef(p)
	h := 1e-3
	var plainX [][]float64
	plain.Integrate([]float64{1, 1, 1}, 0, 30, h, func(_ float64, x []float64) {
		plainX = append(plainX, append([]float64(nil), x...))
	})
	for _, in := range []HybridInputs{{}, {PacketRate: func() float64 { return 0 }}} {
		hybrid := p.HybridSystem(in)
		n := 0
		hybrid.Integrate([]float64{1, 1, 1}, 0, 30, h, func(_ float64, x []float64) {
			for i, v := range x {
				if v != plainX[n][i] {
					t.Fatalf("step %d x[%d]: hybrid %v != plain %v", n, i, v, plainX[n][i])
				}
			}
			n++
		})
	}
}

// TestHybridEquilibrium verifies the coupled system settles onto the
// HybridEquilibrium prediction (equation (9) with effective capacity C−ap)
// when the packet side holds a constant arrival rate.
func TestHybridEquilibrium(t *testing.T) {
	// The Figure 13 stable configuration (R = 100 ms): its equilibrium
	// queueing delay sits far from the Tq=0 clamp, so the trajectory
	// converges instead of riding a drain-and-refill limit cycle. Packet
	// fractions are kept small enough that p* = 2/W*² stays below 1.
	p := fig13Params(0.1)
	for _, frac := range []float64{0, 0.1, 0.2} {
		ap := frac * p.C
		sys := p.HybridSystem(HybridInputs{PacketRate: func() float64 { return ap }})
		x := sys.Integrate([]float64{1, 0, 0}, 0, 300, 1e-3, nil)
		wStar, _, tqStar := p.HybridEquilibrium(ap)
		if rel := math.Abs(x[0]-wStar) / wStar; rel > 0.1 {
			t.Errorf("ap=%v: W settled at %v, predicted %v (%.1f%% off)", ap, x[0], wStar, 100*rel)
		}
		if rel := math.Abs(x[1]-tqStar) / tqStar; rel > 0.1 {
			t.Errorf("ap=%v: Tq settled at %v, predicted %v (%.1f%% off)", ap, x[1], tqStar, 100*rel)
		}
	}
	// ap = 0 must degenerate to the fluid-only equation (9).
	w0, p0, t0 := p.HybridEquilibrium(0)
	w1, p1, t1 := p.Equilibrium()
	if w0 != w1 || math.Abs(p0-p1) > 1e-15 || math.Abs(t0-t1) > 1e-15 {
		t.Errorf("HybridEquilibrium(0) = (%v,%v,%v), want Equilibrium() = (%v,%v,%v)", w0, p0, t0, w1, p1, t1)
	}
}
