package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/clean"
	"taxiqueue/internal/cluster"
	"taxiqueue/internal/core"
	"taxiqueue/internal/geo"
	"taxiqueue/internal/hausdorff"
	"taxiqueue/internal/mdt"
	"taxiqueue/internal/monitor"
	"taxiqueue/internal/report"
	"taxiqueue/internal/sim"
)

// Cleaning reproduces the §6.1.1 preprocessing statistics (paper: ~2.8% of
// records removed across three error classes).
func (s *Suite) Cleaning() (clean.Stats, string, error) {
	d, err := s.Day(time.Monday)
	if err != nil {
		return clean.Stats{}, "", err
	}
	t := report.NewTable("§6.1.1 Data cleaning (paper: ~2.8% erroneous records)",
		"Metric", "Value")
	st := d.CleanStats
	t.AddRow("input records", fmt.Sprint(st.Input))
	t.AddRow("duplicates removed", fmt.Sprint(st.Duplicates))
	t.AddRow("improper states removed", fmt.Sprint(st.ImproperStates))
	t.AddRow("GPS outliers removed", fmt.Sprint(st.GPSOutliers))
	t.AddRow("total removed", fmt.Sprintf("%d (%s)", st.Removed(), report.Pct(st.Rate())))
	return st, t.String(), nil
}

// Fig6 reproduces the DBSCAN parameter sweep (detected queue-spot count vs
// ε ∈ {5,10,15,20} m × minPts ∈ {25,50,100,150}).
func (s *Suite) Fig6() ([]cluster.SweepCell, string, error) {
	d, err := s.Day(time.Monday)
	if err != nil {
		return nil, "", err
	}
	pts := make([]geo.Point, len(d.Result.Pickups))
	for i, p := range d.Result.Pickups {
		pts[i] = p.Centroid
	}
	epsVals := []float64{5, 10, 15, 20}
	minPts := []int{25, 50, 100, 150}
	cells, err := cluster.SweepParallel(pts, epsVals, minPts, 0)
	if err != nil {
		return nil, "", err
	}
	t := report.NewTable(
		fmt.Sprintf("Fig. 6 Detected queue spots vs DBSCAN parameters (%d pickup events)", len(pts)),
		"eps \\ minPts", "25", "50", "100", "150")
	for i, eps := range epsVals {
		row := []string{fmt.Sprintf("%.0f m", eps)}
		for j := range minPts {
			row = append(row, fmt.Sprint(cells[i*len(minPts)+j].NumClusters))
		}
		t.AddRow(row...)
	}
	return cells, t.String(), nil
}

// Fig7Result summarizes island-wide spot detection and the §6.1.3 LTA
// taxi-stand comparison.
type Fig7Result struct {
	TotalSpots        int
	ByZone            [citymap.NumZones]int
	CBDStands         int     // central-zone official stands (paper: 31)
	StandsDetected    int     // detected within the match radius (paper: 30)
	MeanLocationError float64 // meters (paper: 7.6 m)
	BusyNonStandSpots int     // detected non-stand spots busier than the median stand
}

// Fig7 reproduces the island-wide queue-spot map summary and the taxi-stand
// accuracy check.
func (s *Suite) Fig7() (Fig7Result, string, error) {
	d, err := s.Day(time.Monday)
	if err != nil {
		return Fig7Result{}, "", err
	}
	res := d.Result
	var r Fig7Result
	r.TotalSpots = len(res.Spots)
	r.ByZone = res.SpotCountByZone()

	// Detected spots are compared against the stands' *registered*
	// coordinates: the few-meter survey/GPS mismatch between the registry
	// point and the actual queue area is what the paper's 7.6 m mean
	// location error measures.
	const matchRadius = 30.0
	var standPickups []int
	var errSum float64
	for _, lm := range s.City.TaxiStands() {
		if lm.Zone != citymap.Central {
			continue
		}
		r.CBDStands++
		best := -1.0
		bestPickups := 0
		for _, sa := range res.Spots {
			if dd := geo.Equirect(sa.Spot.Pos, lm.RegisteredPos); dd <= matchRadius && (best < 0 || dd < best) {
				best = dd
				bestPickups = sa.Spot.PickupCount
			}
		}
		if best >= 0 {
			r.StandsDetected++
			errSum += best
			standPickups = append(standPickups, bestPickups)
		}
	}
	if r.StandsDetected > 0 {
		r.MeanLocationError = errSum / float64(r.StandsDetected)
	}
	// Busy non-stand spots in the CBD (paper: "more than 15 queue spots in
	// this area, not labeled by LTA, have more daily pickups than many
	// taxi stands" — i.e. more than the quieter quartile of stands).
	quartileStand := 0
	if len(standPickups) > 0 {
		sort.Ints(standPickups)
		quartileStand = standPickups[len(standPickups)/4]
	}
	for _, sa := range res.Spots {
		if sa.Spot.Zone != citymap.Central || sa.Spot.PickupCount <= quartileStand {
			continue
		}
		nearStand := false
		for _, lm := range s.City.TaxiStands() {
			if geo.Equirect(sa.Spot.Pos, lm.Pos) <= matchRadius {
				nearStand = true
				break
			}
		}
		if !nearStand {
			r.BusyNonStandSpots++
		}
	}

	t := report.NewTable("Fig. 7 / §6.1.3 Detected queue spots", "Metric", "Value")
	t.AddRow("total spots detected", fmt.Sprint(r.TotalSpots))
	for z := 0; z < citymap.NumZones; z++ {
		t.AddRow("  "+citymap.Zone(z).String()+" zone", fmt.Sprint(r.ByZone[z]))
	}
	t.AddRow("CBD official taxi stands", fmt.Sprint(r.CBDStands))
	t.AddRow("stands detected", fmt.Sprintf("%d (paper: 30 of 31)", r.StandsDetected))
	t.AddRow("mean location error", fmt.Sprintf("%s (paper: 7.6 m)", report.Meters(r.MeanLocationError)))
	t.AddRow("busy unlabeled CBD spots", fmt.Sprintf("%d (paper: >15)", r.BusyNonStandSpots))
	return r, t.String(), nil
}

// Table4 reproduces the landmark-category shares near detected spots.
func (s *Suite) Table4() (map[citymap.Category]float64, string, error) {
	d, err := s.Day(time.Monday)
	if err != nil {
		return nil, "", err
	}
	const proximity = 50.0
	counts := map[citymap.Category]int{}
	unidentified := 0
	for _, sa := range d.Result.Spots {
		lm, dist, ok := s.City.NearestLandmark(sa.Spot.Pos)
		if ok && dist <= proximity {
			counts[lm.Category]++
		} else {
			unidentified++
		}
	}
	total := float64(len(d.Result.Spots))
	out := map[citymap.Category]float64{}
	t := report.NewTable("Table 4 Landmark nearby the detected queue spots",
		"Nearby facility or landmark", "Share", "Paper")
	paperShares := []string{"48.3%", "11.8%", "9.6%", "8.4%", "6.2%", "5.6%", "4.5%"}
	for c := citymap.Category(0); int(c) < citymap.NumCategories; c++ {
		frac := float64(counts[c]) / total
		out[c] = frac
		t.AddRow(c.String(), report.Pct(frac), paperShares[c])
	}
	t.AddRow("Unidentified", report.Pct(float64(unidentified)/total), "5.6%")
	return out, t.String(), nil
}

// Fig8 reproduces the per-zone, per-day-of-week detected spot counts.
func (s *Suite) Fig8() ([7][citymap.NumZones]int, string, error) {
	var counts [7][citymap.NumZones]int
	t := report.NewTable("Fig. 8 Queue spot number in different zones and days",
		"Day", "Central", "North", "West", "East", "Total")
	for i, wd := range Weekdays {
		d, err := s.Day(wd)
		if err != nil {
			return counts, "", err
		}
		byZone := d.Result.SpotCountByZone()
		counts[i] = byZone
		total := 0
		for _, n := range byZone {
			total += n
		}
		t.AddRow(DayNames[i],
			fmt.Sprint(byZone[citymap.Central]), fmt.Sprint(byZone[citymap.North]),
			fmt.Sprint(byZone[citymap.West]), fmt.Sprint(byZone[citymap.East]),
			fmt.Sprint(total))
	}
	return counts, t.String(), nil
}

// Table5 reproduces the modified-Hausdorff-distance matrix between the
// seven day-of-week spot sets.
func (s *Suite) Table5() ([][]float64, string, error) {
	sets := make([][]geo.Point, len(Weekdays))
	for i, wd := range Weekdays {
		d, err := s.Day(wd)
		if err != nil {
			return nil, "", err
		}
		pts := make([]geo.Point, len(d.Result.Spots))
		for j := range d.Result.Spots {
			pts[j] = d.Result.Spots[j].Spot.Pos
		}
		sets[i] = pts
	}
	m := hausdorff.Matrix(sets)
	t := report.NewTable("Table 5 Modified Hausdorff distance between day-of-week spot sets (meters)",
		append([]string{""}, DayNames...)...)
	for i := range m {
		row := []string{DayNames[i]}
		for j := range m[i] {
			row = append(row, fmt.Sprintf("%.1f", m[i][j]))
		}
		t.AddRow(row...)
	}
	return m, t.String(), nil
}

// Table6Result holds average extracted pickup counts per spot.
type Table6Result struct {
	Weekday [citymap.NumZones]float64
	Weekend [citymap.NumZones]float64
}

// Table6 reproduces the average daily pickup-event (sub-trajectory) count
// per queue spot by zone, weekday vs weekend.
func (s *Suite) Table6() (Table6Result, string, error) {
	var r Table6Result
	avgFor := func(wd time.Weekday) ([citymap.NumZones]float64, error) {
		var sums [citymap.NumZones]float64
		var counts [citymap.NumZones]int
		d, err := s.Day(wd)
		if err != nil {
			return sums, err
		}
		for _, sa := range d.Result.Spots {
			sums[sa.Spot.Zone] += float64(len(sa.Waits))
			counts[sa.Spot.Zone]++
		}
		for z := range sums {
			if counts[z] > 0 {
				sums[z] /= float64(counts[z])
			}
		}
		return sums, nil
	}
	var err error
	if r.Weekday, err = avgFor(time.Wednesday); err != nil {
		return r, "", err
	}
	if r.Weekend, err = avgFor(time.Sunday); err != nil {
		return r, "", err
	}
	t := report.NewTable("Table 6 Average pickup-event number per queue spot",
		"Day type", "Central", "North", "West", "East")
	t.AddRow("Working day", report.F(r.Weekday[0]), report.F(r.Weekday[1]),
		report.F(r.Weekday[2]), report.F(r.Weekday[3]))
	t.AddRow("Weekend day", report.F(r.Weekend[0]), report.F(r.Weekend[1]),
		report.F(r.Weekend[2]), report.F(r.Weekend[3]))
	return r, t.String(), nil
}

// queueTypeOrder is the row order used by the context tables.
var queueTypeOrder = []core.QueueType{core.C1, core.C2, core.C3, core.C4, core.Unidentified}

// Table7 reproduces the queue-type share table over the selected context
// spots on a working day.
func (s *Suite) Table7() (map[core.QueueType]float64, string, error) {
	d, err := s.Day(time.Monday)
	if err != nil {
		return nil, "", err
	}
	sel := s.contextSpotSelection(d.Result, s.Cfg.ContextSpots)
	var sets [][]core.QueueType
	for _, i := range sel {
		sets = append(sets, d.Result.Spots[i].Labels)
	}
	p := core.Proportions(sets...)
	paper := map[core.QueueType]string{
		core.C1: "30.1%", core.C2: "11.7%", core.C3: "8.6%",
		core.C4: "33.1%", core.Unidentified: "16.5%",
	}
	t := report.NewTable(
		fmt.Sprintf("Table 7 Proportion of queue types (%d spots, %s)", len(sel), "Monday"),
		"Queue type", "Share", "Paper")
	for _, q := range queueTypeOrder {
		t.AddRow(q.String(), report.Pct(p[q]), paper[q])
	}
	return p, t.String(), nil
}

// Fig9 reproduces the queue-type shares per day of week.
func (s *Suite) Fig9() ([7]map[core.QueueType]float64, string, error) {
	var out [7]map[core.QueueType]float64
	t := report.NewTable("Fig. 9 Proportion of queue type in different days of week",
		"Day", "C1", "C2", "C3", "C4", "Unid")
	for i, wd := range Weekdays {
		d, err := s.Day(wd)
		if err != nil {
			return out, "", err
		}
		sel := s.contextSpotSelection(d.Result, s.Cfg.ContextSpots)
		var sets [][]core.QueueType
		for _, j := range sel {
			sets = append(sets, d.Result.Spots[j].Labels)
		}
		p := core.Proportions(sets...)
		out[i] = p
		t.AddRow(DayNames[i], report.Pct(p[core.C1]), report.Pct(p[core.C2]),
			report.Pct(p[core.C3]), report.Pct(p[core.C4]), report.Pct(p[core.Unidentified]))
	}
	return out, t.String(), nil
}

// Table8Result aggregates the two independent validation signals per label.
type Table8Result struct {
	AvgTaxis    map[core.QueueType]float64 // vehicle-monitor average count
	AvgFailures map[core.QueueType]float64 // failed bookings per slot
}

// Table8 validates the labels against the vehicle monitor (average taxi
// count inside the stand polygon) and the failed-booking ledger.
func (s *Suite) Table8() (Table8Result, string, error) {
	d, err := s.Day(time.Monday)
	if err != nil {
		return Table8Result{}, "", err
	}
	sel := s.contextSpotSelection(d.Result, s.Cfg.ContextSpots)
	taxiSum := map[core.QueueType]float64{}
	failSum := map[core.QueueType]float64{}
	n := map[core.QueueType]int{}
	for _, i := range sel {
		sa := d.Result.Spots[i]
		truth := s.truthFor(d, sa.Spot.Pos)
		if truth == nil {
			continue
		}
		// Exercise the real monitor component: replay the ground-truth
		// change log into an AreaCounter, exactly what the camera system
		// would have produced.
		counter := monitor.NewAreaCounter(truth.Landmark.Name,
			geo.CirclePolygon(truth.Landmark.Pos, 40, 12))
		for _, sample := range truth.TaxiQueueLog {
			if err := counter.Observe(sample.Time, sample.Len); err != nil {
				return Table8Result{}, "", err
			}
		}
		for j, lbl := range sa.Labels {
			from, to := d.Grid.Bounds(j)
			taxiSum[lbl] += counter.Average(from, to)
			failSum[lbl] += float64(d.Dispatcher.FailedNear(sa.Spot.Pos, 150, from, to))
			n[lbl]++
		}
	}
	r := Table8Result{
		AvgTaxis:    map[core.QueueType]float64{},
		AvgFailures: map[core.QueueType]float64{},
	}
	t := report.NewTable("Table 8 Average number of taxis (monitor) and failed bookings per slot",
		"Queue type", "Avg taxis", "Paper", "Avg failed bookings", "Paper")
	paperTaxis := map[core.QueueType]string{
		core.C1: "6.13", core.C2: "1.35", core.C3: "3.26", core.C4: "0.32", core.Unidentified: "1.56"}
	paperFail := map[core.QueueType]string{
		core.C1: "0.35", core.C2: "4.29", core.C3: "0.13", core.C4: "0.73", core.Unidentified: "0.24"}
	for _, q := range queueTypeOrder {
		if n[q] > 0 {
			r.AvgTaxis[q] = taxiSum[q] / float64(n[q])
			r.AvgFailures[q] = failSum[q] / float64(n[q])
		}
		t.AddRow(q.String(), report.F2(r.AvgTaxis[q]), paperTaxis[q],
			report.F2(r.AvgFailures[q]), paperFail[q])
	}
	return r, t.String(), nil
}

// truthFor matches a detected spot back to its landmark's ground truth.
func (s *Suite) truthFor(d *Day, pos geo.Point) *sim.SpotTruth {
	for i := range s.City.Landmarks {
		if geo.Equirect(pos, s.City.Landmarks[i].Pos) < 30 {
			return d.Truth.Spots[i]
		}
	}
	return nil
}

// SlotRange is a run of consecutive slots with the same label (Table 9).
type SlotRange struct {
	From, To time.Time // [From, To)
	Label    core.QueueType
}

// Table9 reproduces the Lucky Plaza Sunday case study: the day's queue-type
// timeline at one mall spot.
func (s *Suite) Table9() ([]SlotRange, string, error) {
	d, err := s.Day(time.Sunday)
	if err != nil {
		return nil, "", err
	}
	lp, ok := s.City.Find("Lucky Plaza")
	if !ok {
		return nil, "", fmt.Errorf("experiments: Lucky Plaza missing from city")
	}
	var spot *core.SpotAnalysis
	for i := range d.Result.Spots {
		if geo.Equirect(d.Result.Spots[i].Spot.Pos, lp.Pos) < 30 {
			spot = &d.Result.Spots[i]
			break
		}
	}
	if spot == nil {
		return nil, "", fmt.Errorf("experiments: Lucky Plaza spot not detected on Sunday")
	}
	var ranges []SlotRange
	for j, lbl := range spot.Labels {
		from, to := d.Grid.Bounds(j)
		if len(ranges) > 0 && ranges[len(ranges)-1].Label == lbl {
			ranges[len(ranges)-1].To = to
			continue
		}
		ranges = append(ranges, SlotRange{From: from, To: to, Label: lbl})
	}
	var b strings.Builder
	b.WriteString("Table 9 Lucky Plaza queue-type timeline (Sunday)\n")
	b.WriteString("Paper: C1/C3 around midnight, C4 01:30-08:30, C1<->C2 during 11:00-20:00 shopping hours, C4 late evening\n")
	byLabel := map[core.QueueType][]string{}
	for _, r := range ranges {
		byLabel[r.Label] = append(byLabel[r.Label],
			fmt.Sprintf("%s-%s", r.From.Format("15:04"), r.To.Format("15:04")))
	}
	for _, q := range queueTypeOrder {
		if len(byLabel[q]) > 0 {
			fmt.Fprintf(&b, "%-13s %s\n", q.String(), strings.Join(byLabel[q], ", "))
		}
	}
	return ranges, b.String(), nil
}

// DriverBehavior reports the §7.2 finding: taxis entering queue spots with
// a BUSY state and quickly leaving with POB (cherry-picking favorite
// passengers) concentrate in the passenger-queue contexts (C1/C2).
func (s *Suite) DriverBehavior() (map[core.QueueType]int, string, error) {
	d, err := s.Day(time.Monday)
	if err != nil {
		return nil, "", err
	}
	res := d.Result
	spots := make([]core.QueueSpot, len(res.Spots))
	for i := range res.Spots {
		spots[i] = res.Spots[i].Spot
	}
	assigned := core.AssignPickups(res.Pickups, spots, 30)
	counts := map[core.QueueType]int{}
	for i := range res.Spots {
		sa := &res.Spots[i]
		for _, p := range assigned[i] {
			// A BUSY-state pickup: the run contains BUSY and ends POB;
			// WTE extracts no wait from it, so it is invisible to QCD —
			// we join it to the slot label by its POB time.
			if p.Busy && p.EndState == mdt.POB {
				counts[sa.LabelAt(d.Grid, p.End)]++
			}
		}
	}
	t := report.NewTable("§7.2 BUSY-state cherry-picking pickups by queue context",
		"Queue type", "BUSY pickups")
	for _, q := range queueTypeOrder {
		t.AddRow(q.String(), fmt.Sprint(counts[q]))
	}
	return counts, t.String(), nil
}
