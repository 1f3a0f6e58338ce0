package tcp

import (
	"slices"
	"sort"

	"pert/internal/netem"
)

// Scoreboard tracks which segments above the cumulative ACK point have been
// selectively acknowledged, as disjoint sorted ranges. It answers the
// questions SACK-based loss recovery needs: how many segments are sacked, is
// a given segment sacked, and where is the next unsacked hole.
type Scoreboard struct {
	blocks []netem.SackBlock // sorted, disjoint, non-adjacent
	floor  int64             // cumulative ACK point; blocks never extend below
	count  int64             // total sacked segments (kept incrementally)
}

// Reset clears all SACK information (used after a retransmission timeout,
// matching ns-2's conservative behaviour). The cumulative floor is kept.
func (s *Scoreboard) Reset() {
	s.blocks = s.blocks[:0]
	s.count = 0
}

// Add merges one advertised SACK block into the scoreboard. Ranges at or
// below the cumulative ACK point are ignored — they carry no new information.
// The merge happens in place, so once the slice has grown to the episode's
// block count Add allocates nothing.
func (s *Scoreboard) Add(b netem.SackBlock) {
	if b.Start < s.floor {
		b.Start = s.floor
	}
	if b.End <= b.Start {
		return
	}
	// Find insertion window [i, j) of blocks overlapping or adjacent to b.
	i := sort.Search(len(s.blocks), func(k int) bool { return s.blocks[k].End >= b.Start })
	j := i
	for j < len(s.blocks) && s.blocks[j].Start <= b.End {
		if s.blocks[j].Start < b.Start {
			b.Start = s.blocks[j].Start
		}
		if s.blocks[j].End > b.End {
			b.End = s.blocks[j].End
		}
		s.count -= s.blocks[j].End - s.blocks[j].Start
		j++
	}
	s.count += b.End - b.Start
	s.blocks = slices.Replace(s.blocks, i, j, b)
}

// AckedUpTo discards scoreboard state below the new cumulative ACK point.
// Dropped blocks are shifted out rather than sliced off the front, so the
// slice keeps its whole capacity for later Adds.
func (s *Scoreboard) AckedUpTo(cum int64) {
	if cum > s.floor {
		s.floor = cum
	}
	i := 0
	for i < len(s.blocks) && s.blocks[i].End <= cum {
		s.count -= s.blocks[i].End - s.blocks[i].Start
		i++
	}
	if i > 0 {
		s.blocks = slices.Delete(s.blocks, 0, i)
	}
	if len(s.blocks) > 0 && s.blocks[0].Start < cum {
		s.count -= cum - s.blocks[0].Start
		s.blocks[0].Start = cum
	}
}

// IsSacked reports whether segment seq has been selectively acknowledged.
func (s *Scoreboard) IsSacked(seq int64) bool {
	i := sort.Search(len(s.blocks), func(k int) bool { return s.blocks[k].End > seq })
	return i < len(s.blocks) && s.blocks[i].Start <= seq
}

// SackedCount returns the total number of sacked segments. O(1).
func (s *Scoreboard) SackedCount() int64 { return s.count }

// SackedAbove returns the number of sacked segments at or above seq.
func (s *Scoreboard) SackedAbove(seq int64) int64 {
	var n int64
	for _, b := range s.blocks {
		if b.End <= seq {
			continue
		}
		start := b.Start
		if start < seq {
			start = seq
		}
		n += b.End - start
	}
	return n
}

// HighestSacked returns one past the highest sacked segment, or 0 if none.
func (s *Scoreboard) HighestSacked() int64 {
	if len(s.blocks) == 0 {
		return 0
	}
	return s.blocks[len(s.blocks)-1].End
}

// NextHole returns the first segment >= from that is not sacked and is below
// limit, or -1 if there is none.
func (s *Scoreboard) NextHole(from, limit int64) int64 {
	seq := from
	// Skip blocks wholly below seq, then walk the few that matter.
	i := sort.Search(len(s.blocks), func(k int) bool { return s.blocks[k].End > seq })
	for ; i < len(s.blocks); i++ {
		b := s.blocks[i]
		if seq >= limit {
			return -1
		}
		if seq < b.Start {
			return seq // hole before this block
		}
		if seq < b.End {
			seq = b.End // skip over the sacked block
		}
	}
	if seq < limit {
		return seq
	}
	return -1
}

// Blocks returns the scoreboard's ranges (read-only view for tests).
func (s *Scoreboard) Blocks() []netem.SackBlock { return s.blocks }
