package queue

import (
	"math/rand"
	"testing"

	"pert/internal/netem"
	"pert/internal/sim"
)

// TestDisciplineConformance subjects every queue discipline to the same
// randomized workload and checks the invariants the Link contract relies on:
// FIFO delivery of accepted packets, truthful Len/Bytes accounting, a hard
// Limit that is never exceeded, nil from an empty Dequeue, and the marking
// contract (CE may be set only inside Enqueue — Link.Send counts marks by
// comparing CE across the Enqueue call, so a dequeue-time mark would go
// uncounted). For the marking disciplines it also checks the counters their
// shared action keeps: every offered packet is accepted or counted as an
// early or forced drop, and ECNMarks counts exactly the packets accepted
// with CE set (none with ECN off).
func TestDisciplineConformance(t *testing.T) {
	const limit = 32
	makers := map[string]func(rng *rand.Rand) netem.Discipline{
		"droptail": func(*rand.Rand) netem.Discipline { return NewDropTail(limit) },
		"red": func(rng *rand.Rand) netem.Discipline {
			return NewRED(REDConfig{Limit: limit, MinTh: 4, MaxTh: 12, MaxP: 0.1, Wq: 0.2, Gentle: true}, rng)
		},
		"red-ecn": func(rng *rand.Rand) netem.Discipline {
			return NewRED(REDConfig{Limit: limit, MinTh: 4, MaxTh: 12, MaxP: 0.2, Wq: 0.2, Gentle: true, ECN: true}, rng)
		},
		"adaptive-red": func(rng *rand.Rand) netem.Discipline {
			return NewAdaptiveRED(AdaptiveREDConfig{Limit: limit, CapacityPPS: 1000}, rng)
		},
		"pi": func(rng *rand.Rand) netem.Discipline {
			return NewPI(limit, 8, PIGains{A: 1e-3, B: 0.9e-3, Interval: sim.Millisecond}, false, rng)
		},
		"pi-ecn": func(rng *rand.Rand) netem.Discipline {
			return NewPI(limit, 8, PIGains{A: 1e-3, B: 0.9e-3, Interval: sim.Millisecond}, true, rng)
		},
		"rem": func(rng *rand.Rand) netem.Discipline {
			return NewREM(limit, 1000, false, rng)
		},
		"rem-ecn": func(rng *rand.Rand) netem.Discipline {
			return NewREM(limit, 1000, true, rng)
		},
		"avq": func(rng *rand.Rand) netem.Discipline {
			return NewAVQ(limit, 1000, false, rng)
		},
		"avq-ecn": func(rng *rand.Rand) netem.Discipline {
			return NewAVQ(limit, 1000, true, rng)
		},
	}
	// counters returns a marking discipline's shared action, nil for
	// DropTail, which keeps none.
	counters := func(q netem.Discipline) *aqm {
		switch q := q.(type) {
		case *RED:
			return &q.aqm
		case *AdaptiveRED:
			return &q.aqm
		case *PI:
			return &q.aqm
		case *REM:
			return &q.aqm
		case *AVQ:
			return &q.aqm
		}
		return nil
	}

	for name, mk := range makers {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 10; seed++ {
				rng := rand.New(rand.NewSource(seed))
				q := mk(rand.New(rand.NewSource(seed + 100)))
				var model []*netem.Packet
				ceAtEnqueue := map[uint64]bool{}
				bytes := 0
				var offered, accepted, marked uint64
				now := sim.Time(0)
				nextID := uint64(1)
				for op := 0; op < 4000; op++ {
					now += sim.Duration(rng.Intn(2000)) * sim.Microsecond
					if rng.Intn(3) > 0 { // 2/3 enqueue
						p := &netem.Packet{ID: nextID, Size: 40 + rng.Intn(1400), ECT: rng.Intn(2) == 0}
						nextID++
						offered++
						if q.Enqueue(p, now) {
							accepted++
							if p.CE {
								marked++
							}
							model = append(model, p)
							ceAtEnqueue[p.ID] = p.CE
							bytes += p.Size
						}
					} else {
						got := q.Dequeue(now)
						if len(model) == 0 {
							if got != nil {
								t.Fatalf("seed %d: dequeue from empty returned %v", seed, got.ID)
							}
						} else {
							if got == nil {
								t.Fatalf("seed %d: nil dequeue with %d queued", seed, len(model))
							}
							if got != model[0] {
								t.Fatalf("seed %d: FIFO violated: got %d want %d", seed, got.ID, model[0].ID)
							}
							if got.CE != ceAtEnqueue[got.ID] {
								t.Fatalf("seed %d: CE changed after enqueue on %d (marking contract)", seed, got.ID)
							}
							delete(ceAtEnqueue, got.ID)
							model = model[1:]
							bytes -= got.Size
						}
					}
					if q.Len() != len(model) {
						t.Fatalf("seed %d op %d: Len=%d model=%d", seed, op, q.Len(), len(model))
					}
					if q.Bytes() != bytes {
						t.Fatalf("seed %d op %d: Bytes=%d model=%d", seed, op, q.Bytes(), bytes)
					}
					if q.Len() > limit {
						t.Fatalf("seed %d: limit exceeded: %d", seed, q.Len())
					}
					if a := counters(q); a != nil {
						if offered != accepted+a.EarlyDrops+a.ForcedDrops {
							t.Fatalf("seed %d op %d: offered %d != accepted %d + early %d + forced %d",
								seed, op, offered, accepted, a.EarlyDrops, a.ForcedDrops)
						}
						if a.ECNMarks != marked || (!a.ecn && a.ECNMarks != 0) {
							t.Fatalf("seed %d op %d: ECNMarks %d, %d accepted with CE (ECN %v)",
								seed, op, a.ECNMarks, marked, a.ecn)
						}
					}
				}
			}
		})
	}
}
