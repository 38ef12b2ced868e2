package core

import (
	"fmt"
	"sort"
	"sync"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/cluster"
	"taxiqueue/internal/geo"
	"taxiqueue/internal/spatial"
)

// QueueSpot is one detected queue location: the centroid of a DBSCAN
// cluster of pickup-event locations (§4.3).
type QueueSpot struct {
	// Pos is the cluster centroid.
	Pos geo.Point
	// Zone is the Fig. 5 analysis zone containing the spot.
	Zone citymap.Zone
	// PickupCount is the number of pickup events in the cluster.
	PickupCount int
}

// String implements fmt.Stringer.
func (q QueueSpot) String() string {
	return fmt.Sprintf("spot%v %s (%d pickups)", q.Pos, q.Zone, q.PickupCount)
}

// DetectorConfig parameterizes queue-spot detection.
type DetectorConfig struct {
	// Cluster holds the DBSCAN ε_d/p_d pair; the paper settles on 15 m and
	// 50 points for daily datasets (§6.1.2).
	Cluster cluster.Params
	// ByZone splits the island into the four Fig. 5 zones and clusters
	// each independently — the paper's mitigation for DBSCAN's O(n²) cost.
	ByZone bool
	// Parallelism fans the per-zone loop and DBSCAN itself over a worker
	// pool; 0 uses GOMAXPROCS, 1 forces the sequential path. Results are
	// identical at any setting.
	Parallelism int
}

// DefaultDetectorConfig returns the paper's settings.
func DefaultDetectorConfig() DetectorConfig {
	return DetectorConfig{
		Cluster: cluster.Params{EpsMeters: 15, MinPoints: 50},
		ByZone:  true,
	}
}

// DetectSpots clusters the pickup centroids and returns the queue spots,
// ordered by descending pickup count (ties broken by position for
// determinism).
func DetectSpots(pickups []Pickup, cfg DetectorConfig) ([]QueueSpot, error) {
	pts := make([]geo.Point, len(pickups))
	for i, p := range pickups {
		pts[i] = p.Centroid
	}
	return detectSpots(pts, cfg)
}

// detectSpots is the one spot detector: the zone partition, DBSCAN per
// zone and the spotBefore order over a centroid set. DetectSpots runs it
// over a day's pickups, LiveDetector over its sliding window.
func detectSpots(pts []geo.Point, cfg DetectorConfig) ([]QueueSpot, error) {
	workers := capWorkers(cfg.Parallelism)
	var spots []QueueSpot
	if cfg.ByZone {
		// Partition the GPS location set C into the four zone subsets
		// (§6.1.2): count, then carve one pre-sized backing array into
		// per-zone sub-slices instead of growing four append targets.
		zoneIDs := make([]uint8, len(pts))
		var counts [citymap.NumZones]int
		for i, p := range pts {
			z := citymap.ZoneOf(p)
			zoneIDs[i] = uint8(z)
			counts[z]++
		}
		backing := make([]geo.Point, len(pts))
		var start [citymap.NumZones + 1]int
		for z := 0; z < citymap.NumZones; z++ {
			start[z+1] = start[z] + counts[z]
		}
		cursor := start
		for i, p := range pts {
			z := zoneIDs[i]
			backing[cursor[z]] = p
			cursor[z]++
		}
		// Cluster the four zones concurrently; each zone's DBSCAN further
		// parallelizes internally when the zone is large enough.
		var perZone [citymap.NumZones][]QueueSpot
		var errs [citymap.NumZones]error
		runZone := func(z int) {
			perZone[z], errs[z] = clusterZone(backing[start[z]:start[z+1]], citymap.Zone(z), cfg.Cluster, workers)
		}
		if workers == 1 {
			for z := 0; z < citymap.NumZones; z++ {
				runZone(z)
			}
		} else {
			var wg sync.WaitGroup
			for z := 0; z < citymap.NumZones; z++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					runZone(z)
				}()
			}
			wg.Wait()
		}
		for z := 0; z < citymap.NumZones; z++ {
			if errs[z] != nil {
				return nil, errs[z]
			}
			spots = append(spots, perZone[z]...)
		}
	} else {
		zs, err := clusterZone(pts, 0, cfg.Cluster, workers)
		if err != nil {
			return nil, err
		}
		// Re-derive each spot's true zone when clustering island-wide.
		for i := range zs {
			zs[i].Zone = citymap.ZoneOf(zs[i].Pos)
		}
		spots = zs
	}
	sort.Slice(spots, func(i, j int) bool { return spotBefore(&spots[i], &spots[j]) })
	return spots, nil
}

// spotBefore is the one spot order: descending pickup count, ties broken
// by position for determinism. detectSpots and LiveDetector.Refresh sort
// with it.
func spotBefore(a, b *QueueSpot) bool {
	if a.PickupCount != b.PickupCount {
		return a.PickupCount > b.PickupCount
	}
	if a.Pos.Lat != b.Pos.Lat {
		return a.Pos.Lat < b.Pos.Lat
	}
	return a.Pos.Lon < b.Pos.Lon
}

func clusterZone(pts []geo.Point, zone citymap.Zone, p cluster.Params, workers int) ([]QueueSpot, error) {
	if len(pts) == 0 {
		return nil, nil
	}
	res, err := cluster.DBSCANParallel(pts, p, workers)
	if err != nil {
		return nil, err
	}
	cents := res.Centroids(pts)
	sizes := res.ClusterSizes()
	spots := make([]QueueSpot, len(cents))
	for i := range cents {
		spots[i] = QueueSpot{Pos: cents[i], Zone: zone, PickupCount: sizes[i]}
	}
	return spots, nil
}

// SpotIndex matches a point to the nearest queue spot within a radius —
// the pickup-to-spot assignment of W(r), shared by the batch AssignPickups
// and the live engine. Not safe for concurrent use (one scratch buffer).
type SpotIndex struct {
	pts    []geo.Point
	grid   *spatial.Grid
	radius float64
	buf    []int
}

// NewSpotIndex indexes spots for Nearest lookups within radiusMeters.
func NewSpotIndex(spots []QueueSpot, radiusMeters float64) *SpotIndex {
	pts := SpotPositions(spots)
	return &SpotIndex{pts: pts, grid: spatial.NewGrid(pts, radiusMeters), radius: radiusMeters}
}

// Nearest returns the index of the spot nearest p within the radius, or -1
// when none is in range. Of equidistant spots the first the grid reports
// wins.
func (x *SpotIndex) Nearest(p geo.Point) int {
	x.buf = x.grid.Within(p, x.radius, x.buf[:0])
	best := -1
	bestD := x.radius + 1
	for _, id := range x.buf {
		if d := geo.Equirect(p, x.pts[id]); d < bestD {
			best, bestD = id, d
		}
	}
	return best
}

// AssignPickups builds the per-spot pickup-event sets W(r): each pickup is
// assigned to the nearest detected spot within maxMeters of its centroid;
// pickups with no spot in range are dropped (they are scatter noise).
// The result is indexed like spots.
func AssignPickups(pickups []Pickup, spots []QueueSpot, maxMeters float64) [][]Pickup {
	out := make([][]Pickup, len(spots))
	if len(spots) == 0 {
		return out
	}
	idx := NewSpotIndex(spots, maxMeters)
	for _, p := range pickups {
		if best := idx.Nearest(p.Centroid); best >= 0 {
			out[best] = append(out[best], p)
		}
	}
	return out
}

// SpotPositions extracts the coordinate set of a spot list (the input to
// the Table 5 Hausdorff comparison and to SpotIndex).
func SpotPositions(spots []QueueSpot) []geo.Point {
	pts := make([]geo.Point, len(spots))
	for i, s := range spots {
		pts[i] = s.Pos
	}
	return pts
}
