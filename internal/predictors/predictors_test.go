package predictors

import (
	"math"
	"testing"

	"pert/internal/core"
	"pert/internal/sim"
)

func ms(x float64) sim.Duration { return sim.Milliseconds(x) }

// synthTrace builds a trace with a sawtooth RTT pattern: RTT ramps from base
// to peak over rampSamples, a queue-level loss fires at each peak, then RTT
// falls back. Sample spacing is 1 ms.
func synthTrace(cycles, rampSamples int, base, peak sim.Duration) *Trace {
	tr := &Trace{}
	t := sim.Time(0)
	for c := 0; c < cycles; c++ {
		for i := 0; i <= rampSamples; i++ {
			t += sim.Millisecond
			rtt := base + sim.Duration(float64(peak-base)*float64(i)/float64(rampSamples))
			tr.Samples = append(tr.Samples, Sample{T: t, RTT: rtt, Cwnd: 10 + float64(i), QueueFrac: float64(i) / float64(rampSamples)})
		}
		t += sim.Millisecond
		tr.QueueLosses = append(tr.QueueLosses, t)
		// Recovery: a few low samples.
		for i := 0; i < 5; i++ {
			t += sim.Millisecond
			tr.Samples = append(tr.Samples, Sample{T: t, RTT: base, Cwnd: 5, QueueFrac: 0})
		}
	}
	return tr
}

func TestThresholdPredictorOnSawtooth(t *testing.T) {
	tr := synthTrace(20, 50, ms(60), ms(80))
	p := NewThreshold(ms(65))
	res := Evaluate(p, tr, tr.QueueLosses)
	if res.BtoC != 20 {
		t.Fatalf("hits = %d, want 20 (every ramp crosses 65 ms before loss)", res.BtoC)
	}
	if res.AtoC != 0 {
		t.Fatalf("false negatives = %d", res.AtoC)
	}
	if res.BtoA != 0 {
		t.Fatalf("false positives = %d on a clean sawtooth", res.BtoA)
	}
	if e := res.Efficiency(); e != 1 {
		t.Fatalf("efficiency = %v", e)
	}
}

func TestThresholdFalseNegativeWhenTooHigh(t *testing.T) {
	tr := synthTrace(10, 50, ms(60), ms(80))
	p := NewThreshold(ms(200)) // never crossed
	res := Evaluate(p, tr, tr.QueueLosses)
	if res.BtoC != 0 || res.AtoC != 10 {
		t.Fatalf("hits=%d misses=%d, want 0/10", res.BtoC, res.AtoC)
	}
	if fn := res.FalseNegatives(); fn != 1 {
		t.Fatalf("FN rate = %v", fn)
	}
}

func TestFalsePositivesOnNoise(t *testing.T) {
	// RTT blips above threshold with no losses at all.
	tr := &Trace{}
	t0 := sim.Time(0)
	for i := 0; i < 100; i++ {
		t0 += sim.Millisecond
		rtt := ms(60)
		if i%10 == 5 {
			rtt = ms(90)
		}
		tr.Samples = append(tr.Samples, Sample{T: t0, RTT: rtt, Cwnd: 10, QueueFrac: 0.1})
	}
	p := NewThreshold(ms(65))
	res := Evaluate(p, tr, nil)
	if res.BtoA != 10 {
		t.Fatalf("false positives = %d, want 10", res.BtoA)
	}
	if res.FalsePositives() != 1 {
		t.Fatalf("FP rate = %v", res.FalsePositives())
	}
	if len(res.FalsePositiveQueueFracs) != 10 {
		t.Fatalf("fp queue fracs = %d", len(res.FalsePositiveQueueFracs))
	}
	for _, f := range res.FalsePositiveQueueFracs {
		if f != 0.1 {
			t.Fatalf("queue frac = %v", f)
		}
	}
}

func TestEWMASmootherSuppressesBlips(t *testing.T) {
	// Same noisy trace: the srtt_0.99 smoother should yield no transitions
	// into B at all, hence no false positives.
	tr := &Trace{}
	t0 := sim.Time(0)
	for i := 0; i < 1000; i++ {
		t0 += sim.Millisecond
		rtt := ms(60)
		if i%10 == 5 {
			rtt = ms(90)
		}
		tr.Samples = append(tr.Samples, Sample{T: t0, RTT: rtt, Cwnd: 10})
	}
	p := NewRelativeThreshold("ewma-0.99", ms(5), &EWMASmoother{EWMA: core.EWMA{W: 0.99}})
	res := Evaluate(p, tr, nil)
	if res.BtoA != 0 || res.AtoB != 0 {
		t.Fatalf("smoothed signal still transitioned: %+v", res.Transitions)
	}
}

func TestEWMATracksPersistentShift(t *testing.T) {
	p := NewRelativeThreshold("ewma-0.99", ms(5), &EWMASmoother{EWMA: core.EWMA{W: 0.99}})
	s := Sample{T: sim.Millisecond, RTT: ms(60)}
	p.Observe(s)
	// Persistent 20 ms queueing delay: the smoothed signal must cross
	// min+5ms within a few hundred samples.
	crossed := false
	for i := 0; i < 1000; i++ {
		s.T += sim.Millisecond
		s.RTT = ms(80)
		if p.Observe(s) {
			crossed = true
			break
		}
	}
	if !crossed {
		t.Fatal("smoothed predictor never detected a persistent shift")
	}
}

func TestWindowSmoother(t *testing.T) {
	w := NewWindowSmoother(4)
	if got := w.Update(ms(10)); got != ms(10) {
		t.Fatalf("first = %v", got)
	}
	w.Update(ms(20))
	w.Update(ms(30))
	if got := w.Update(ms(40)); got != ms(25) {
		t.Fatalf("full window = %v", got)
	}
	// Rolls: 20,30,40,50 -> 35.
	if got := w.Update(ms(50)); got != ms(35) {
		t.Fatalf("rolled = %v", got)
	}
}

func TestCARDDetectsRisingDelay(t *testing.T) {
	c := &CARD{}
	t0 := sim.Time(0)
	state := false
	// Rising RTT, sampled once per RTT via the gate.
	for i := 0; i < 20; i++ {
		t0 += 100 * sim.Millisecond
		state = c.Observe(Sample{T: t0, RTT: ms(60 + float64(i)*3)})
	}
	if !state {
		t.Fatal("CARD missed a monotone delay ramp")
	}
	for i := 0; i < 5; i++ {
		t0 += 100 * sim.Millisecond
		state = c.Observe(Sample{T: t0, RTT: ms(60)})
	}
	if state {
		t.Fatal("CARD stuck in congestion after delay fell")
	}
}

func TestDUALMidpointRule(t *testing.T) {
	d := &DUAL{}
	t0 := sim.Time(0)
	obs := func(rtt sim.Duration) bool {
		t0 += 200 * sim.Millisecond
		return d.Observe(Sample{T: t0, RTT: rtt})
	}
	obs(ms(60))  // min
	obs(ms(100)) // max; midpoint now 80
	if obs(ms(70)) {
		t.Fatal("70 ms below midpoint flagged")
	}
	if !obs(ms(90)) {
		t.Fatal("90 ms above midpoint not flagged")
	}
}

func TestVegasPredictorQueueEstimate(t *testing.T) {
	v := NewVegasPredictor()
	t0 := sim.Time(0)
	obs := func(rtt sim.Duration, cwnd float64) bool {
		t0 += 200 * sim.Millisecond
		return v.Observe(Sample{T: t0, RTT: rtt, Cwnd: cwnd})
	}
	obs(ms(60), 10)
	// cwnd 20, RTT 66ms: diff = 20*6/66 = 1.8 < 3: no congestion.
	if obs(ms(66), 20) {
		t.Fatal("small backlog flagged")
	}
	// cwnd 40, RTT 75ms: diff = 40*15/75 = 8 > 3: congestion.
	if !obs(ms(75), 40) {
		t.Fatal("large backlog missed")
	}
}

func TestCIMShortVsLong(t *testing.T) {
	c := NewCIM()
	t0 := sim.Time(0)
	state := false
	for i := 0; i < 150; i++ {
		t0 += 100 * sim.Millisecond
		state = c.Observe(Sample{T: t0, RTT: ms(60)})
	}
	if state {
		t.Fatal("flat RTT flagged")
	}
	for i := 0; i < 10; i++ {
		t0 += 100 * sim.Millisecond
		state = c.Observe(Sample{T: t0, RTT: ms(90)})
	}
	if !state {
		t.Fatal("recent RTT surge missed")
	}
}

func TestPerRTTGateSubsamples(t *testing.T) {
	c := &CARD{}
	t0 := sim.Time(0)
	// 1 ms apart with 100 ms RTTs: only ~1 in 100 samples accepted, so a
	// rising ramp is seen as rising at epoch granularity.
	for i := 0; i < 1000; i++ {
		t0 += sim.Millisecond
		c.Observe(Sample{T: t0, RTT: ms(100 + float64(i)/10)})
	}
	if c.prev == 0 {
		t.Fatal("gate never accepted")
	}
	// Epochs keep being accepted through the trace (RTT grows toward
	// 200 ms, so the last epoch can start anywhere in the final 200 ms).
	if c.gate.last < 800*sim.Millisecond {
		t.Fatalf("last accepted epoch at %v", c.gate.last)
	}
}

func TestCoalesceLosses(t *testing.T) {
	in := []sim.Time{ms(100), ms(101), ms(102), ms(300), ms(301), ms(900)}
	out := CoalesceLosses(in, ms(50))
	want := []sim.Time{ms(100), ms(300), ms(900)}
	if len(out) != len(want) {
		t.Fatalf("coalesced = %v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("coalesced = %v", out)
		}
	}
	if CoalesceLosses(nil, ms(1)) != nil {
		t.Fatal("nil input")
	}
	// Unsorted input is sorted first.
	out = CoalesceLosses([]sim.Time{ms(500), ms(100)}, ms(50))
	if len(out) != 2 || out[0] != ms(100) {
		t.Fatalf("unsorted = %v", out)
	}
}

func TestTrailingLossesCounted(t *testing.T) {
	tr := &Trace{Samples: []Sample{{T: sim.Millisecond, RTT: ms(90)}}}
	p := NewThreshold(ms(65))
	res := Evaluate(p, tr, []sim.Time{ms(10)})
	if res.BtoC != 1 {
		t.Fatalf("trailing loss after B sample: %+v", res.Transitions)
	}
}

func TestEvaluateRatesConsistent(t *testing.T) {
	tr := synthTrace(30, 40, ms(60), ms(90))
	for _, p := range Suite(ms(5), 100) {
		res := Evaluate(p, tr, tr.QueueLosses)
		e, fp, fn := res.Efficiency(), res.FalsePositives(), res.FalseNegatives()
		if e < 0 || e > 1 || fp < 0 || fp > 1 || fn < 0 || fn > 1 {
			t.Fatalf("%s: rates out of range: e=%v fp=%v fn=%v", p.Name(), e, fp, fn)
		}
		if res.BtoC+res.BtoA > 0 && math.Abs(e+fp-1) > 1e-9 {
			t.Fatalf("%s: efficiency + FP != 1", p.Name())
		}
	}
}
