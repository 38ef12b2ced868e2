package history

import (
	"math"
	"sort"
	"time"

	"taxiqueue/internal/core"
)

// Point is one slot of a spot's decoded series. Empty marks a slot that
// was final but recorded no activity: its features are the zero 5-tuple
// and its label the spot's synthesized empty context.
type Point struct {
	Time  time.Time         `json:"t"`
	Day   int               `json:"day"`
	Slot  int               `json:"slot"`
	Label core.QueueType    `json:"label"`
	Feats core.SlotFeatures `json:"-"`
	Empty bool              `json:"empty,omitempty"`
}

// Series decodes spot's per-slot history over [from, to): one Point per
// final slot in the range, in time order, with unstored (empty) slots
// synthesized. Only slots below their day's watermark appear. Lock-free:
// one atomic index load, block summaries skip non-overlapping blocks.
func (s *Store) Series(spot int, from, to time.Time) []Point {
	t0 := time.Now()
	defer s.met.qSeries.Since(t0)
	if spot < 0 || spot >= len(s.cfg.Spots) || !to.After(from) {
		return nil
	}
	ix := s.pub.Load()

	if from.Before(s.cfg.Grid.Start) {
		from = s.cfg.Grid.Start
	}
	fromDay, fromSlot, ok := s.cfg.Grid.Locate(from)
	if !ok {
		return nil
	}
	// The slot containing to-1ns is included iff to extends past its start.
	toDay, toSlot, ok := s.cfg.Grid.Locate(to.Add(-time.Nanosecond))
	if !ok {
		return nil
	}
	// Clamp the scan to the newest recorded day: beyond it every slot is
	// above its (zero) watermark anyway, and an unclamped far-future `to`
	// would iterate hundreds of millions of empty days. Cost must be
	// O(data), not O(requested range).
	days := ix.days()
	if len(days) == 0 {
		return nil
	}
	if last := days[len(days)-1]; toDay > last {
		toDay, toSlot = last, s.cfg.Grid.Slots-1
	}

	var out []Point
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
		// Collect stored cells for (day, spot, [lo, hi)) from blocks the
		// summaries admit, then the open tail.
		stored := make(map[int]Record, hi-lo)
		for _, b := range ix.blocks {
			if b.day != day || !b.overlaps(lo, hi) {
				continue
			}
			for _, r := range s.blockRecs(b) {
				if r.Spot == spot && r.Slot >= lo && r.Slot < hi {
					stored[r.Slot] = r
				}
			}
		}
		for _, r := range ix.pending {
			if r.Day == day && r.Spot == spot && r.Slot >= lo && r.Slot < hi {
				stored[r.Slot] = r
			}
		}
		for slot := lo; slot < hi; slot++ {
			p := Point{Time: s.TimeOf(day, slot), Day: day, Slot: slot}
			if r, ok := stored[slot]; ok {
				p.Label, p.Feats = r.Label, r.Feats
			} else {
				p.Feats, p.Label = s.emptyContext(spot)
				p.Empty = true
			}
			out = append(out, p)
		}
	}
	return out
}

// tileMeters is the heatmap tile edge length, reported in every Heatmap.
const tileMeters = 400.0

// Tile is one heatmap cell: all spots whose position falls in the same
// tileMeters × tileMeters grid square, aggregated at one slot.
type Tile struct {
	Lat    float64               `json:"lat"` // tile center
	Lon    float64               `json:"lon"`
	Spots  int                   `json:"spots"`
	Labels [int(core.C4) + 1]int `json:"labels"` // spot count per context
	QLen   float64               `json:"qlen"`   // Σ L̄ over the tile's spots
	NArr   float64               `json:"narr"`
	NDep   float64               `json:"ndep"`
}

// Heatmap is the city-wide intensity grid at one recorded slot.
type Heatmap struct {
	Day        int       `json:"day"`
	Slot       int       `json:"slot"`
	Time       time.Time `json:"t"`
	TileMeters float64   `json:"tile_m"`
	Tiles      []Tile    `json:"tiles"`
}

// metersPerDegLat is the WGS-84 mean; longitude degrees shrink by
// cos(lat), applied at the dataset's mean latitude.
const metersPerDegLat = 111320.0

// Heatmap buckets every spot's context at the slot containing at into
// tileMeters-edge tiles; ok is false when that slot is not yet final (or
// precedes the grid). Empty spots count toward the tile's Spots and the
// empty context's label bucket but contribute zero intensity.
func (s *Store) Heatmap(at time.Time) (Heatmap, bool) {
	t0 := time.Now()
	defer s.met.qHeatmap.Since(t0)
	day, slot, ok := s.cfg.Grid.Locate(at)
	if !ok {
		return Heatmap{}, false
	}
	ix := s.pub.Load()
	if slot >= ix.wm[day] {
		return Heatmap{}, false
	}

	// Per-spot context at (day, slot): stored or synthesized-empty.
	labels := make([]core.QueueType, len(s.cfg.Spots))
	feats := make([]core.SlotFeatures, len(s.cfg.Spots))
	seen := make([]bool, len(s.cfg.Spots))
	for _, b := range ix.blocks {
		if b.day != day || !b.overlaps(slot, slot+1) {
			continue
		}
		for _, r := range s.blockRecs(b) {
			if r.Slot == slot {
				labels[r.Spot], feats[r.Spot], seen[r.Spot] = r.Label, r.Feats, true
			}
		}
	}
	for _, r := range ix.pending {
		if r.Day == day && r.Slot == slot {
			labels[r.Spot], feats[r.Spot], seen[r.Spot] = r.Label, r.Feats, true
		}
	}

	meanLat := 0.0
	for _, sp := range s.cfg.Spots {
		meanLat += sp.Pos.Lat
	}
	if len(s.cfg.Spots) > 0 {
		meanLat /= float64(len(s.cfg.Spots))
	}
	lonScale := metersPerDegLat * math.Cos(meanLat*math.Pi/180)

	type key struct{ y, x int }
	tiles := make(map[key]*Tile)
	for i, sp := range s.cfg.Spots {
		if !seen[i] {
			feats[i], labels[i] = s.emptyContext(i)
		}
		k := key{
			y: int(math.Floor(sp.Pos.Lat * metersPerDegLat / tileMeters)),
			x: int(math.Floor(sp.Pos.Lon * lonScale / tileMeters)),
		}
		t := tiles[k]
		if t == nil {
			t = &Tile{
				Lat: (float64(k.y) + 0.5) * tileMeters / metersPerDegLat,
				Lon: (float64(k.x) + 0.5) * tileMeters / lonScale,
			}
			tiles[k] = t
		}
		t.Spots++
		if int(labels[i]) < len(t.Labels) {
			t.Labels[labels[i]]++
		}
		t.QLen += feats[i].QLen
		t.NArr += feats[i].NArr
		t.NDep += feats[i].NDep
	}

	hm := Heatmap{Day: day, Slot: slot, Time: s.TimeOf(day, slot), TileMeters: tileMeters}
	hm.Tiles = make([]Tile, 0, len(tiles))
	for _, t := range tiles {
		hm.Tiles = append(hm.Tiles, *t)
	}
	sort.Slice(hm.Tiles, func(i, j int) bool {
		if hm.Tiles[i].Lat != hm.Tiles[j].Lat {
			return hm.Tiles[i].Lat < hm.Tiles[j].Lat
		}
		return hm.Tiles[i].Lon < hm.Tiles[j].Lon
	})
	return hm, true
}

// EmptyHeatmap returns a schema-complete zero heatmap for an instant the
// store cannot serve (outside the grid, or a slot no final data reached):
// Tiles is empty but non-nil so clients always receive an array, and
// Day/Slot carry the located indexes when the instant is inside the grid,
// -1 when it isn't. The serve layer uses this to answer out-of-range
// /heatmap?t queries with a valid body instead of an error.
func (s *Store) EmptyHeatmap(at time.Time) Heatmap {
	hm := Heatmap{Day: -1, Slot: -1, Time: at, TileMeters: tileMeters, Tiles: []Tile{}}
	if day, slot, ok := s.cfg.Grid.Locate(at); ok {
		hm.Day, hm.Slot = day, slot
		hm.Time = s.TimeOf(day, slot)
	}
	return hm
}

// TransitionMatrix counts how a spot's context label at slot j of one day
// maps to its label at the same slot the next day, over every recorded
// consecutive-day pair — the day-over-day stability view ("this spot is a
// taxi queue at 18:30 four days out of five").
type TransitionMatrix struct {
	Spot   int                                     `json:"spot"`
	Pairs  int                                     `json:"pairs"` // (slot, day→day+1) samples counted
	Counts [int(core.C4) + 1][int(core.C4) + 1]int `json:"counts"`
}

// Transitions builds spot's day-over-day label transition matrix from
// every pair of consecutive recorded days, over slots final in both.
func (s *Store) Transitions(spot int) TransitionMatrix {
	t0 := time.Now()
	defer s.met.qTransitions.Since(t0)
	m := TransitionMatrix{Spot: spot}
	if spot < 0 || spot >= len(s.cfg.Spots) {
		return m
	}
	ix := s.pub.Load()
	days := ix.days()
	if len(days) < 2 {
		return m
	}

	// labelsFor decodes one day's label-per-slot vector for the spot.
	_, emptyLabel := s.emptyContext(spot)
	labelsFor := func(day, below int) []core.QueueType {
		out := make([]core.QueueType, below)
		for i := range out {
			out[i] = emptyLabel
		}
		for _, b := range ix.blocks {
			if b.day != day || !b.overlaps(0, below) {
				continue
			}
			for _, r := range s.blockRecs(b) {
				if r.Spot == spot && r.Slot < below {
					out[r.Slot] = r.Label
				}
			}
		}
		for _, r := range ix.pending {
			if r.Day == day && r.Spot == spot && r.Slot < below {
				out[r.Slot] = r.Label
			}
		}
		return out
	}

	for i := 0; i+1 < len(days); i++ {
		d0, d1 := days[i], days[i+1]
		if d1 != d0+1 {
			continue
		}
		below := ix.wm[d0]
		if w := ix.wm[d1]; w < below {
			below = w
		}
		if below <= 0 {
			continue
		}
		l0 := labelsFor(d0, below)
		l1 := labelsFor(d1, below)
		for j := 0; j < below; j++ {
			m.Counts[l0[j]][l1[j]]++
			m.Pairs++
		}
	}
	return m
}

// Latest returns the newest final (day, slot); ok is false while nothing
// is recorded. The heatmap endpoint defaults to it.
func (s *Store) Latest() (day, slot int, ok bool) {
	ix := s.pub.Load()
	found := false
	for d, w := range ix.wm {
		if w <= 0 {
			continue
		}
		if !found || d > day {
			day, slot, found = d, w-1, true
		}
	}
	return day, slot, found
}
