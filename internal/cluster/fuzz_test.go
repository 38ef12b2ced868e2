package cluster

import (
	"testing"

	"taxiqueue/internal/geo"
)

// decodeLattice turns fuzz bytes into a DBSCAN input: data[0] sets ε in
// quarter metres (0.25–64 m), data[1] sets MinPoints (1–256), data[2] the
// side of a square of whole-metre lattice points (8–135 m), and each later
// byte pair one point's east and north offsets on it, up to 255 points,
// near 1.3° N. On the lattice, pairs at exactly ε, duplicate points and
// points on sub-cell edges all occur.
func decodeLattice(data []byte) ([]geo.Point, Params, bool) {
	if len(data) < 3 {
		return nil, Params{}, false
	}
	p := Params{EpsMeters: float64(data[0])/4 + 0.25, MinPoints: 1 + int(data[1])}
	span := 8 + int(data[2])%128
	origin := geo.Point{Lat: 1.3, Lon: 103.8}
	var pts []geo.Point
	for rest := data[3:]; len(rest) >= 2 && len(pts) < 255; rest = rest[2:] {
		pts = append(pts, geo.Offset(origin, float64(int(rest[0])%span), float64(int(rest[1])%span)))
	}
	return pts, p, true
}

// latticeSeed encodes one point repeated n times at ε and minPts.
func latticeSeed(eps float64, minPts, n int) []byte {
	data := []byte{byte((eps - 0.25) * 4), byte(minPts - 1), 0}
	for range n {
		data = append(data, 3, 5)
	}
	return data
}

// FuzzDBSCANMatchesNaive: DBSCAN, DBSCANParallel at two workers, the
// cell passes run at two workers directly (the small-input gate would run
// them on one) and SweepParallel all label every decoded input exactly as
// the textbook loop does.
func FuzzDBSCANMatchesNaive(f *testing.F) {
	// TestDBSCANParallelDegenerateInputs' cases.
	f.Add(latticeSeed(15, 5, 0))    // empty
	f.Add(latticeSeed(15, 50, 255)) // duplicates: one cluster
	f.Add(latticeSeed(15, 256, 255))
	f.Add(latticeSeed(15, 1, 1)) // single core point
	f.Add(latticeSeed(15, 2, 1)) // single noise point
	f.Fuzz(func(t *testing.T, data []byte) {
		pts, p, ok := decodeLattice(data)
		if !ok {
			return
		}
		want, err := DBSCANNaive(pts, p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DBSCAN(pts, p)
		if err != nil {
			t.Fatal(err)
		}
		assertLabelsEqual(t, "DBSCAN", want, got)
		if got, err = DBSCANParallel(pts, p, 2); err != nil {
			t.Fatal(err)
		}
		assertLabelsEqual(t, "DBSCANParallel", want, got)
		assertLabelsEqual(t, "passes", want, label(newCells(pts, p.EpsMeters), p.MinPoints, 2))
		sweep, err := SweepParallel(pts, []float64{p.EpsMeters}, []int{p.MinPoints}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if c := sweep[0]; c.NumClusters != want.NumClusters || c.NoisePoints != want.NoiseCount() {
			t.Fatalf("SweepParallel: %d clusters and %d noise, want %d and %d", c.NumClusters, c.NoisePoints, want.NumClusters, want.NoiseCount())
		}
	})
}
