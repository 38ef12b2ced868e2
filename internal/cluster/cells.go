package cluster

import (
	"cmp"
	"math"
	"slices"

	"taxiqueue/internal/geo"
)

// The one DBSCAN is cell-based (Gunawan, "A Faster Algorithm for DBSCAN",
// TU Eindhoven 2013; Gan & Tao, "DBSCAN Revisited", SIGMOD 2015). The
// points go into sub-cells of side ε/√2, so any two points of one sub-cell
// lie within ε of each other, and four passes label them:
//
//  1. core flags — every point of a sub-cell holding at least MinPoints
//     points is core, with no distance test; any other point counts its
//     ε-neighbours (self included) in the sub-cells within reach, and
//     stops once it has MinPoints;
//  2. clusters — the core points of one sub-cell form one cluster, and two
//     sub-cells within reach merge at the first core–core pair found
//     within ε, through the lock-free union-find;
//  3. numbering — clusters are numbered in ascending order of their first
//     core index, the order in which the textbook loop starts them;
//  4. borders — a non-core point joins the lowest-numbered cluster with a
//     core point within ε (the textbook loop expands clusters fully, one at
//     a time, so the lowest-numbered one claims a border point first), or
//     stays Noise.
//
// Every distance test decides geo.Equirect(p, q) <= ε exactly, as the
// textbook loop does, so the labels equal DBSCANNaive's byte for byte.
// Passes 1, 2 and 4 fan sub-cells out over workers. The union-find's roots
// converge to each component's minimum index whatever the interleaving,
// so the labels are the same at any worker count.
//
// The sub-cell geometry only has to be conservative; exactness rests on
// bounds checked against each sub-cell's actual points:
//
//   - A sub-cell is ε/√2, less cellMargin, high in latitude, and as wide
//     in longitude as that many metres measure at the input's latitude
//     nearest the equator. geo.Equirect scales a longitude difference by
//     the cosine of the pair's mean latitude, which is never larger there
//     (the bound geo.Disc's band rests on), so no pair of one sub-cell is
//     further apart than ε. A sub-cell is a clique only once the bounding
//     box of its points proves this, with a relative margin far above the
//     rounding error; a sub-cell that fails is treated point by point.
//   - Two sub-cells are within reach unless their boxes prove that no pair
//     lies within ε, and the search for them covers every point within ε
//     of a sub-cell's box.
//   - A point with a coordinate that is not finite is within ε of nothing,
//     itself included, in geo.Equirect; it is Noise and in no sub-cell.
const (
	// cellMargin shrinks the sub-cell side below ε/√2, so that a sub-cell
	// whose points fill it still passes the clique check's margin.
	cellMargin = 1e-6
	// boundSlack is the relative margin of every box bound: rounding moves
	// geo.Equirect and the bounds by a few parts in 1e16.
	boundSlack = 1e-9
	// cellBlock is the number of sub-cells a worker claims at a time.
	cellBlock = 64
)

// box is the bounding box of one sub-cell's points, in degrees.
type box struct{ minLat, maxLat, minLon, maxLon float64 }

func emptyBox() box {
	return box{minLat: math.Inf(1), maxLat: math.Inf(-1), minLon: math.Inf(1), maxLon: math.Inf(-1)}
}

func (b *box) add(p geo.Point) {
	b.minLat, b.maxLat = min(b.minLat, p.Lat), max(b.maxLat, p.Lat)
	b.minLon, b.maxLon = min(b.minLon, p.Lon), max(b.maxLon, p.Lon)
}

// cells is the sub-cell grid over one point set at one ε: the part of a
// DBSCAN run that does not depend on MinPoints, so a sweep builds it once
// per ε. It is read-only once built.
type cells struct {
	pts []geo.Point
	eps float64
	// k is ε in radians of arc. cosLo and cosHi bound |cos| of the mean
	// latitude of any two input points.
	k, cosLo, cosHi float64
	origin          geo.Point
	h, w            float64 // sub-cell side in degrees of latitude and longitude

	keys   []uint64 // each sub-cell's (row, column) key, ascending
	boxes  []box
	clique []bool  // every pair of the sub-cell's points is within ε
	start  []int32 // sub-cell c holds ids[start[c]:start[c+1]], ascending
	ids    []int32
	// nbrs[nbrStart[c]:nbrStart[c+1]] are the sub-cells that may hold a
	// point within ε of one of c's points, c itself first.
	nbrStart []int32
	nbrs     []int32
}

// newCells builds the sub-cell grid of pts at radius eps > 0.
func newCells(pts []geo.Point, eps float64) *cells {
	return newCellsOfSide(pts, eps, degrees(eps/geo.EarthRadiusMeters/math.Sqrt2*(1-cellMargin)))
}

// newCellsOfSide is newCells with sub-cells side degrees of latitude high.
// Tests pass sides above ε/√2 to reach sub-cells that fail the clique
// check.
func newCellsOfSide(pts []geo.Point, eps, side float64) *cells {
	g := &cells{pts: pts, eps: eps, k: eps / geo.EarthRadiusMeters}
	finite := make([]int32, 0, len(pts))
	span := emptyBox()
	for i, p := range pts {
		if math.IsInf(p.Lat, 0) || math.IsNaN(p.Lat) || math.IsInf(p.Lon, 0) || math.IsNaN(p.Lon) {
			continue
		}
		finite = append(finite, int32(i))
		span.add(p)
	}
	if len(finite) == 0 {
		return g
	}
	g.origin = geo.Point{Lat: span.minLat, Lon: span.minLon}
	g.cosLo, g.cosHi = cosRange(span.minLat, span.maxLat)
	g.h, g.w = side, side/g.cosHi

	// Sort the points by sub-cell key, then index: each sub-cell's points
	// are one run of ids, in ascending index order.
	type keyed struct {
		key uint64
		id  int32
	}
	byKey := make([]keyed, len(finite))
	for n, i := range finite {
		byKey[n] = keyed{cellKey(g.row(pts[i].Lat), g.col(pts[i].Lon)), i}
	}
	slices.SortFunc(byKey, func(a, b keyed) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	g.ids = make([]int32, len(byKey))
	for n, kp := range byKey {
		g.ids[n] = kp.id
		if n == 0 || kp.key != byKey[n-1].key {
			g.keys = append(g.keys, kp.key)
			g.start = append(g.start, int32(n))
		}
	}
	g.start = append(g.start, int32(len(byKey)))

	nc := len(g.keys)
	g.boxes = make([]box, nc)
	g.clique = make([]bool, nc)
	for c := range g.keys {
		b := emptyBox()
		for _, i := range g.cell(int32(c)) {
			b.add(pts[i])
		}
		g.boxes[c] = b
		g.clique[c] = g.allWithin(&b, &b)
	}

	g.nbrStart = make([]int32, 0, nc+1)
	for c := range nc {
		g.nbrStart = append(g.nbrStart, int32(len(g.nbrs)))
		g.nbrs = g.appendReach(append(g.nbrs, int32(c)), c)
	}
	g.nbrStart = append(g.nbrStart, int32(len(g.nbrs)))
	return g
}

// cell returns sub-cell c's point indexes.
func (g *cells) cell(c int32) []int32 { return g.ids[g.start[c]:g.start[c+1]] }

// neighbours returns the sub-cells within reach of c, c first.
func (g *cells) neighbours(c int32) []int32 { return g.nbrs[g.nbrStart[c]:g.nbrStart[c+1]] }

// appendReach appends to out every other sub-cell that may hold a point
// within ε of a point of sub-cell c: those in the rows and columns that
// c's box, grown by ε, spans, less those whose box is apart from c's.
func (g *cells) appendReach(out []int32, c int) []int32 {
	b := &g.boxes[c]
	dLat := degrees(g.k * (1 + boundSlack))
	dLon := dLat / g.cosLo // +Inf when a mean latitude may reach a pole
	down, up := math.Inf(-1), math.Inf(1)
	loY, hiY := g.row(math.Nextafter(b.minLat-dLat, down)), g.row(math.Nextafter(b.maxLat+dLat, up))
	loX, hiX := g.col(math.Nextafter(b.minLon-dLon, down)), g.col(math.Nextafter(b.maxLon+dLon, up))
	j, _ := slices.BinarySearch(g.keys, cellKey(loY, loX))
	for j < len(g.keys) {
		row, col := keyRow(g.keys[j]), keyCol(g.keys[j])
		switch {
		case row > hiY:
			return out
		case col < loX:
			j, _ = slices.BinarySearch(g.keys, cellKey(row, loX))
			continue
		case col > hiX:
			if row == hiY {
				return out
			}
			j, _ = slices.BinarySearch(g.keys, cellKey(row+1, loX))
			continue
		}
		if j != c && !g.apart(b, &g.boxes[j]) {
			out = append(out, int32(j))
		}
		j++
	}
	return out
}

// allWithin reports that every point of box a lies within ε of every point
// of box b.
func (g *cells) allWithin(a, b *box) bool {
	dLat := max(a.maxLat-b.minLat, b.maxLat-a.minLat)
	dLon := max(a.maxLon-b.minLon, b.maxLon-a.minLon)
	return math.Hypot(radians(dLon)*g.cosHi, radians(dLat)) <= g.k*(1-boundSlack)
}

// apart reports that no point of box a lies within ε of a point of box b.
func (g *cells) apart(a, b *box) bool {
	dLat := max(0, a.minLat-b.maxLat, b.minLat-a.maxLat)
	dLon := max(0, a.minLon-b.maxLon, b.minLon-a.maxLon)
	return math.Hypot(radians(dLon)*g.cosLo, radians(dLat)) > g.k*(1+boundSlack)
}

// row and col map a latitude and a longitude to a sub-cell row and
// column. Both are non-decreasing in their argument, so a point between
// two coordinates lies between their rows and columns.
func (g *cells) row(lat float64) int32 { return cellIndex((lat - g.origin.Lat) / g.h) }
func (g *cells) col(lon float64) int32 { return cellIndex((lon - g.origin.Lon) / g.w) }

// cellIndex is floor(x) clamped to int32, with NaN (0/0 on a side that
// underflowed to 0) taken as 0, so that it is non-decreasing in x.
func cellIndex(x float64) int32 {
	switch f := math.Floor(x); {
	case f != f:
		return 0
	case f <= math.MinInt32:
		return math.MinInt32
	case f >= math.MaxInt32:
		return math.MaxInt32
	default:
		return int32(f)
	}
}

// cellKey packs a (row, column) pair so that keys sort by row, then
// column.
func cellKey(row, col int32) uint64 {
	return uint64(uint32(row)^1<<31)<<32 | uint64(uint32(col)^1<<31)
}

func keyRow(key uint64) int32 { return int32(uint32(key>>32) ^ 1<<31) }
func keyCol(key uint64) int32 { return int32(uint32(key) ^ 1<<31) }

// cosRange bounds |cos φ| over the latitudes φ in [lo, hi] degrees: the
// mean latitudes of any two points whose latitudes lie there.
func cosRange(lo, hi float64) (cosLo, cosHi float64) {
	if lo < -90 || hi > 90 {
		return 0, 1
	}
	near := 0.0
	if lo > 0 {
		near = lo
	} else if hi < 0 {
		near = -hi
	}
	return math.Cos(radians(max(-lo, hi))), math.Cos(radians(near))
}

func radians(deg float64) float64 { return deg * math.Pi / 180 }
func degrees(rad float64) float64 { return rad * 180 / math.Pi }

// labeler is one DBSCAN run's per-point state over a sub-cell grid.
type labeler struct {
	core   []bool
	uf     unionFind
	labels []int
	// Sub-cell c's core points are coreIDs[coreStart[c]:coreStart[c+1]].
	coreStart []int32
	coreIDs   []int32
}

// label labels g's points at minPts, fanning passes 1, 2 and 4 over
// workers.
func label(g *cells, minPts, workers int) Result {
	n, nc := len(g.pts), len(g.keys)
	s := &labeler{core: make([]bool, n), uf: newUnionFind(n), labels: make([]int, n)}
	fanOut(nc, cellBlock, workers, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			s.coreFlags(g, int32(c), minPts)
		}
	})

	s.coreStart = make([]int32, 0, nc+1)
	for c := range nc {
		s.coreStart = append(s.coreStart, int32(len(s.coreIDs)))
		for _, i := range g.cell(int32(c)) {
			if s.core[i] {
				s.coreIDs = append(s.coreIDs, i)
			}
		}
	}
	s.coreStart = append(s.coreStart, int32(len(s.coreIDs)))

	fanOut(nc, cellBlock, workers, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			s.merge(g, int32(c))
		}
	})

	rootLabel := make([]int32, n)
	next := 0
	for i := range n {
		s.labels[i], rootLabel[i] = Noise, -1
	}
	for i := range n {
		if !s.core[i] {
			continue
		}
		r := s.uf.find(int32(i))
		if rootLabel[r] < 0 {
			rootLabel[r] = int32(next)
			next++
		}
		s.labels[i] = int(rootLabel[r])
	}

	fanOut(nc, cellBlock, workers, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			s.borders(g, int32(c))
		}
	})
	return Result{Labels: s.labels, NumClusters: next}
}

// coreOf returns sub-cell c's core points.
func (s *labeler) coreOf(c int32) []int32 { return s.coreIDs[s.coreStart[c]:s.coreStart[c+1]] }

// coreFlags is pass 1 over sub-cell c.
func (s *labeler) coreFlags(g *cells, c int32, minPts int) {
	ids, nbrs := g.cell(c), g.neighbours(c)
	counted := 0
	if g.clique[c] {
		if len(ids) >= minPts {
			for _, i := range ids {
				s.core[i] = true
			}
			return
		}
		// Every point of c is within ε of the others: count them whole.
		counted, nbrs = len(ids), nbrs[1:]
	}
	for _, i := range ids {
		disc := geo.NewDisc(g.pts[i], g.eps)
		n := counted
		for _, b := range nbrs {
			if n >= minPts {
				break
			}
			for _, j := range g.cell(b) {
				if disc.Contains(g.pts[j]) {
					n++
				}
			}
		}
		s.core[i] = n >= minPts
	}
}

// merge is pass 2 over sub-cell c: it links c's own core points, then c's
// core points to those of each later sub-cell within reach.
func (s *labeler) merge(g *cells, c int32) {
	cs := s.coreOf(c)
	if len(cs) == 0 {
		return
	}
	if g.clique[c] {
		for _, a := range cs[1:] {
			s.uf.union(cs[0], a)
		}
	} else {
		s.linkAll(g, cs, cs)
	}
	for _, b := range g.neighbours(c)[1:] {
		bs := s.coreOf(b)
		switch {
		case b < c || len(bs) == 0:
		case g.clique[c] && g.clique[b]:
			if s.uf.find(cs[0]) != s.uf.find(bs[0]) {
				s.linkFirst(g, cs, bs)
			}
		default:
			s.linkAll(g, cs, bs)
		}
	}
}

// linkFirst unions the first pair of as × bs within ε, if any: enough when
// each side is one cluster already.
func (s *labeler) linkFirst(g *cells, as, bs []int32) {
	for _, a := range as {
		disc := geo.NewDisc(g.pts[a], g.eps)
		for _, b := range bs {
			if disc.Contains(g.pts[b]) {
				s.uf.union(a, b)
				return
			}
		}
	}
}

// linkAll unions every pair of as × bs within ε.
func (s *labeler) linkAll(g *cells, as, bs []int32) {
	for _, a := range as {
		disc := geo.NewDisc(g.pts[a], g.eps)
		for _, b := range bs {
			if disc.Contains(g.pts[b]) {
				s.uf.union(a, b)
			}
		}
	}
}

// borders is pass 4 over sub-cell c: each non-core point takes the lowest
// cluster number among its core neighbours, or Noise. A clique sub-cell's
// core points share one cluster, so one hit there settles it.
func (s *labeler) borders(g *cells, c int32) {
	for _, i := range g.cell(c) {
		if s.core[i] {
			continue
		}
		disc := geo.NewDisc(g.pts[i], g.eps)
		best := Noise
		for _, b := range g.neighbours(c) {
			bs := s.coreOf(b)
			if len(bs) == 0 {
				continue
			}
			if g.clique[b] {
				if l := s.labels[bs[0]]; best == Noise || l < best {
					for _, j := range bs {
						if disc.Contains(g.pts[j]) {
							best = l
							break
						}
					}
				}
				continue
			}
			for _, j := range bs {
				if l := s.labels[j]; (best == Noise || l < best) && disc.Contains(g.pts[j]) {
					best = l
				}
			}
		}
		s.labels[i] = best
	}
}
