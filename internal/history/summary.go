package history

import (
	"time"

	"taxiqueue/internal/core"
)

// RangeSummary is the city-wide aggregate over a time range: how many
// final cells the range covers, how many recorded activity, the label
// distribution over the stored cells, and the feature sums. Empty cells
// (final slots a spot recorded nothing for) count in Cells and Empty but
// not in Labels — their synthesized label is a per-spot constant the
// caller can derive, and keeping them out is what lets a fully-covered
// block be served from its summary alone.
type RangeSummary struct {
	From time.Time `json:"from"` // effective (clamped) range start
	To   time.Time `json:"to"`   // effective range end (exclusive)

	Days   int `json:"days"`   // recorded days the range touched
	Slots  int `json:"slots"`  // final slots aggregated (summed across days)
	Cells  int `json:"cells"`  // Slots × spot count
	Stored int `json:"stored"` // cells with recorded activity
	Empty  int `json:"empty"`  // Cells − Stored

	Labels  [int(core.C4) + 1]int `json:"labels"`   // stored cells per context
	WaitSum float64               `json:"wait_sum"` // Σ t̄wait seconds
	ArrSum  float64               `json:"arr_sum"`  // Σ N_arr
	QLenSum float64               `json:"qlen_sum"` // Σ L̄
	DepSum  float64               `json:"dep_sum"`  // Σ N_dep
}

// rangePartial is one block's (or the pending tail's) contribution,
// accumulated record by record in storage order and folded into the total
// with a single add per field. The aggregate is *defined* as this fold of
// per-block partials in block order: encodeBlock computes each stored
// summary by the same in-order adds over the same records, so a
// fully-covered block's stored sums equal its recomputed partial to the
// bit, and the summary-served total is bit-identical to the decode-served
// one (the property test asserts exactly this).
type rangePartial struct {
	stored int
	labels [int(core.C4) + 1]int
	wait   float64
	arr    float64
	qlen   float64
	dep    float64
}

func (p *rangePartial) add(r Record) {
	p.stored++
	if int(r.Label) < len(p.labels) {
		p.labels[r.Label]++
	}
	p.wait += r.Feats.TWait.Seconds()
	p.arr += r.Feats.NArr
	p.qlen += r.Feats.QLen
	p.dep += r.Feats.NDep
}

func (p *rangePartial) foldInto(out *RangeSummary) {
	out.Stored += p.stored
	for i := range out.Labels {
		out.Labels[i] += p.labels[i]
	}
	out.WaitSum += p.wait
	out.ArrSum += p.arr
	out.QLenSum += p.qlen
	out.DepSum += p.dep
}

// foldSummary adds a stored block summary as one partial (the fast path's
// counterpart of foldInto).
func foldSummary(out *RangeSummary, sum *blockSummary) {
	out.Stored += sum.Count
	for i := range out.Labels {
		out.Labels[i] += sum.Labels[i]
	}
	out.WaitSum += sum.WaitSum
	out.ArrSum += sum.ArrSum
	out.QLenSum += sum.QLenSum
	out.DepSum += sum.DepSum
}

// RangeSummary aggregates every final cell in [from, to) without decoding
// blocks the range fully covers: their stored summaries fold straight into
// the total, and only blocks partially overlapping a day's span decode
// (through the block cache). ok is false for a degenerate range (inverted,
// or entirely before the grid). Like Series, the scan clamps to the newest
// recorded day so cost is O(data), not O(requested range).
func (s *Store) RangeSummary(from, to time.Time) (RangeSummary, bool) {
	t0 := time.Now()
	defer s.met.qRange.Since(t0)
	return s.rangeSummary(from, to, false)
}

// rangeSummary is RangeSummary with the fast path switchable: decodeAll
// forces every overlapping block through decode — the baseline the
// bit-identity property test and BenchmarkHistoryHeatmapRangeDecode
// compare against.
func (s *Store) rangeSummary(from, to time.Time, decodeAll bool) (RangeSummary, bool) {
	if !to.After(from) {
		return RangeSummary{}, false
	}
	if from.Before(s.cfg.Grid.Start) {
		from = s.cfg.Grid.Start
	}
	if !to.After(from) {
		return RangeSummary{}, false
	}
	ix := s.pub.Load()
	fromDay, fromSlot, ok := s.cfg.Grid.Locate(from)
	if !ok {
		return RangeSummary{}, false
	}
	toDay, toSlot, ok := s.cfg.Grid.Locate(to.Add(-time.Nanosecond))
	if !ok {
		return RangeSummary{}, false
	}
	out := RangeSummary{From: from, To: to}
	days := ix.days()
	if len(days) == 0 {
		return out, true
	}
	if last := days[len(days)-1]; toDay > last {
		toDay, toSlot = last, s.cfg.Grid.Slots-1
	}

	for day := fromDay; day <= toDay; day++ {
		lo, hi := 0, s.cfg.Grid.Slots
		if day == fromDay {
			lo = fromSlot
		}
		if day == toDay {
			hi = toSlot + 1
		}
		if w := ix.wm[day]; hi > w {
			hi = w
		}
		if lo >= hi {
			continue
		}
		out.Days++
		out.Slots += hi - lo
		out.Cells += (hi - lo) * len(s.cfg.Spots)
		for _, b := range ix.blocks {
			if b.day != day || !b.overlaps(lo, hi) {
				continue
			}
			if !decodeAll && b.sum.MinSlot >= lo && b.sum.MaxSlot < hi {
				// Fully inside the day's span: the stored summary IS the
				// block's contribution.
				s.met.summaryHits.Inc()
				foldSummary(&out, &b.sum)
				continue
			}
			s.met.summaryMisses.Inc()
			var p rangePartial
			for _, r := range s.blockRecs(b) {
				if r.Slot >= lo && r.Slot < hi {
					p.add(r)
				}
			}
			p.foldInto(&out)
		}
		var p rangePartial
		for _, r := range ix.pending {
			if r.Day == day && r.Slot >= lo && r.Slot < hi {
				p.add(r)
			}
		}
		p.foldInto(&out)
	}
	out.Empty = out.Cells - out.Stored
	return out, true
}
