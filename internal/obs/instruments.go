package obs

import "math"

// Counter is a monotone event counter. The nil receiver is the disabled
// instrument: Add and Inc on a nil *Counter are single-nil-check no-ops, so
// hot paths bump counters unconditionally without an "is metrics on" branch.
// Counters are engine-local and not synchronized, like the model state they
// count.
type Counter struct {
	v uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. No-op on a nil counter.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v += n
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a last-value-wins instrument for state that model code pushes
// (prefer Registry.GaugeFunc when the state can simply be read at sampling
// time). No-op on a nil receiver.
type Gauge struct {
	v float64
}

// Set records the current value. No-op on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
}

// Value returns the last value set (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// histSub is the number of linear sub-buckets per power-of-two octave. Eight
// sub-buckets bound the relative width of any bucket at 1/8 of an octave
// (≈9%), so quantile estimates are within a few percent of exact over the
// full float64 range without picking a value range up front.
const (
	histSubBits = 3
	histSub     = 1 << histSubBits
)

// Histogram is a log-linear histogram: observations are bucketed by binary
// octave (exponent) subdivided into histSub linear sub-buckets. Bucket
// counts live in a dense window that grows to span the keys actually seen
// (histSub counters per octave), so one histogram covers microseconds
// and hundreds of seconds at once and Observe is an index, not a map
// operation — it runs once per ACK. Zero and negative observations share a
// dedicated underflow bucket; non-finite observations are dropped. Observe
// on a nil receiver is a no-op.
type Histogram struct {
	name   string
	count  uint64
	zeros  uint64 // observations <= 0
	sum    float64
	min    float64
	max    float64
	base   int32    // bucket key of counts[0]; key = exponent*histSub + sub-bucket
	counts []uint64 // counts[k-base] is the population of bucket k
}

// bucketKey maps a positive finite v to its bucket: v = frac * 2^exp with
// frac in [0.5, 1) (math.Frexp's convention), and the sub-bucket index is
// the linear position of frac within that octave. For a normal float64 both
// come straight from the bits — the biased exponent, and the top
// log2(histSub) mantissa bits — which keeps the per-ACK Observe to a few
// integer operations; subnormals take the Frexp path.
func bucketKey(v float64) int32 {
	bits := math.Float64bits(v)
	if biased := int32(bits >> 52); biased != 0 {
		return (biased-1022)*histSub + int32(bits>>(52-histSubBits))&(histSub-1)
	}
	frac, exp := math.Frexp(v)
	return int32(exp)*histSub + int32((frac-0.5)*(2*histSub))
}

// bucketBounds returns the [low, high) value range of a bucket key.
func bucketBounds(key int32) (low, high float64) {
	exp := key / histSub
	sub := key % histSub
	if sub < 0 { // Go's % is truncated; normalize for negative exponents
		sub += histSub
		exp--
	}
	low = math.Ldexp(0.5+float64(sub)/(2*histSub), int(exp))
	high = math.Ldexp(0.5+float64(sub+1)/(2*histSub), int(exp))
	return low, high
}

// Observe records one value. Non-finite values are dropped; zero or negative
// values land in a dedicated underflow bucket. No-op on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if v <= 0 {
		h.zeros++
		return
	}
	k := bucketKey(v)
	if i := int(k) - int(h.base); i >= 0 && i < len(h.counts) {
		h.counts[i]++
		return
	}
	h.widen(k)
	h.counts[k-h.base]++
}

// widen grows the window of bucket counts to include key k.
func (h *Histogram) widen(k int32) {
	if len(h.counts) == 0 {
		h.base, h.counts = k, make([]uint64, 1)
		return
	}
	lo := min(k, h.base)
	hi := max(k, h.base+int32(len(h.counts))-1)
	grown := make([]uint64, hi-lo+1)
	copy(grown[h.base-lo:], h.counts)
	h.base, h.counts = lo, grown
}

// Count returns the number of observations (0 on a nil histogram).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of observations (0 on a nil histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Min and Max return the extreme observations (0 when empty or nil).
func (h *Histogram) Min() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.min
}

func (h *Histogram) Max() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile returns an estimate of the q-th quantile (q in [0, 1]) as the
// midpoint of the bucket holding that rank, clamped to the observed min/max
// so estimates never fall outside the data. Returns 0 on an empty or nil
// histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the target observation in sorted order.
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	if rank <= h.zeros {
		return h.clamp(h.min)
	}
	rank -= h.zeros
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if c > 0 && seen >= rank {
			low, high := bucketBounds(h.base + int32(i))
			return h.clamp((low + high) / 2)
		}
	}
	return h.clamp(h.max) // unreachable unless counts drifted; fail safe
}

func (h *Histogram) clamp(v float64) float64 {
	if v < h.min {
		return h.min
	}
	if v > h.max {
		return h.max
	}
	return v
}
