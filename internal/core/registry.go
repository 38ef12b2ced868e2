package core

import (
	"sort"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/cluster"
	"taxiqueue/internal/geo"
)

// RegistrySpot is a consolidated queue spot in the multi-day registry.
type RegistrySpot struct {
	// Pos is the mean position across the days the spot appeared.
	Pos geo.Point
	// Zone is the spot's analysis zone.
	Zone citymap.Zone
	// Days is how many of the input days detected the spot.
	Days int
	// AvgPickups is the mean daily pickup count over those days.
	AvgPickups float64
	// Sporadic marks spots seen on few days (the §7.2 weekend-only park,
	// one-off events): present but below the stability threshold.
	Sporadic bool
}

// MergeSpots consolidates several days' detected spot sets into the stable
// registry the deployed system keeps (§7.1: "the queue spot detection
// module collects the most recent 5 week days' dataset ... to extract and
// update the corresponding queue locations").
//
// Spots from different days within matchMeters of each other are the same
// physical spot; a consolidated spot seen on at least minDays days is
// stable, the rest are flagged Sporadic. The output is ordered by
// descending AvgPickups.
func MergeSpots(daily [][]QueueSpot, matchMeters float64, minDays int) []RegistrySpot {
	// Flatten with day indexes and cluster positions with DBSCAN
	// (minPts=1: every spot belongs somewhere).
	type member struct {
		day  int
		spot QueueSpot
	}
	var members []member
	var pts []geo.Point
	for day, spots := range daily {
		for _, s := range spots {
			members = append(members, member{day: day, spot: s})
			pts = append(pts, s.Pos)
		}
	}
	if len(members) == 0 {
		return nil
	}
	res, err := cluster.DBSCAN(pts, cluster.Params{EpsMeters: matchMeters, MinPoints: 1})
	if err != nil {
		// matchMeters <= 0 matches nothing: one spot per member.
		res = cluster.Result{Labels: make([]int, len(pts)), NumClusters: len(pts)}
		for i := range res.Labels {
			res.Labels[i] = i
		}
	}
	type agg struct {
		lat, lon float64
		n        int
		days     map[int]bool
		pickups  int
	}
	aggs := make([]*agg, res.NumClusters)
	for i, m := range members {
		c := res.Labels[i]
		if c == cluster.Noise {
			continue // cannot happen with minPts=1; defensive
		}
		a := aggs[c]
		if a == nil {
			a = &agg{days: map[int]bool{}}
			aggs[c] = a
		}
		a.lat += m.spot.Pos.Lat
		a.lon += m.spot.Pos.Lon
		a.n++
		a.days[m.day] = true
		a.pickups += m.spot.PickupCount
	}
	var out []RegistrySpot
	for _, a := range aggs {
		if a == nil || a.n == 0 {
			continue
		}
		pos := geo.Point{Lat: a.lat / float64(a.n), Lon: a.lon / float64(a.n)}
		out = append(out, RegistrySpot{
			Pos:        pos,
			Zone:       citymap.ZoneOf(pos),
			Days:       len(a.days),
			AvgPickups: float64(a.pickups) / float64(len(a.days)),
			Sporadic:   len(a.days) < minDays,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].AvgPickups != out[j].AvgPickups {
			return out[i].AvgPickups > out[j].AvgPickups
		}
		if out[i].Pos.Lat != out[j].Pos.Lat {
			return out[i].Pos.Lat < out[j].Pos.Lat
		}
		return out[i].Pos.Lon < out[j].Pos.Lon
	})
	return out
}

// Stable returns only the non-sporadic registry spots.
func Stable(registry []RegistrySpot) []RegistrySpot {
	var out []RegistrySpot
	for _, s := range registry {
		if !s.Sporadic {
			out = append(out, s)
		}
	}
	return out
}

// Sporadics returns only the sporadic registry spots (§7.2's weekend park
// and one-off event spots).
func Sporadics(registry []RegistrySpot) []RegistrySpot {
	var out []RegistrySpot
	for _, s := range registry {
		if s.Sporadic {
			out = append(out, s)
		}
	}
	return out
}

// BuildDayTypeRegistries merges per-day spot sets into one registry per day
// kind, the deployed system's weekday/weekend split (§7.1: weekday spots
// from weekday history, weekend spots from weekend history). daySets maps
// each day's weekday to its detected spots. Spots within 20 m of each
// other are one spot, stable when seen on a majority of its kind's days.
func BuildDayTypeRegistries(daySets map[time.Weekday][]QueueSpot) map[citymap.DayKind][]RegistrySpot {
	grouped := map[citymap.DayKind][][]QueueSpot{}
	for wd, spots := range daySets {
		k := citymap.DayKindOf(int(wd))
		grouped[k] = append(grouped[k], spots)
	}
	out := map[citymap.DayKind][]RegistrySpot{}
	for k, daily := range grouped {
		out[k] = MergeSpots(daily, 20, len(daily)/2+1)
	}
	return out
}
