package citymap

import (
	"math"
	"testing"

	"taxiqueue/internal/geo"
)

func TestZoneOfPartition(t *testing.T) {
	// Every point in the island rectangle must resolve to exactly one zone
	// and that zone's rectangle (or the Central fallback strip) must make
	// geographic sense.
	for lat := Island.MinLat; lat <= Island.MaxLat; lat += 0.01 {
		for lon := Island.MinLon; lon <= Island.MaxLon; lon += 0.01 {
			p := geo.Point{Lat: lat, Lon: lon}
			z := ZoneOf(p)
			if int(z) >= NumZones {
				t.Fatalf("ZoneOf(%v) = %v out of range", p, z)
			}
		}
	}
}

func TestZoneOfKnownPoints(t *testing.T) {
	cases := []struct {
		p    geo.Point
		want Zone
	}{
		{geo.Point{Lat: 1.284, Lon: 103.851}, Central}, // Raffles Place
		{geo.Point{Lat: 1.304, Lon: 103.833}, Central}, // Orchard
		{geo.Point{Lat: 1.357, Lon: 103.988}, East},    // Changi
		{geo.Point{Lat: 1.350, Lon: 103.700}, West},    // Jurong-ish
		{geo.Point{Lat: 1.430, Lon: 103.840}, North},   // Yishun-ish
	}
	for _, c := range cases {
		if got := ZoneOf(c.p); got != c.want {
			t.Errorf("ZoneOf(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestZoneRectsInsideIsland(t *testing.T) {
	for z := Zone(0); int(z) < NumZones; z++ {
		r := zoneRects[z]
		if !Island.Contains(geo.Point{Lat: r.MinLat, Lon: r.MinLon}) ||
			!Island.Contains(geo.Point{Lat: r.MaxLat, Lon: r.MaxLon}) {
			t.Errorf("zone %v rect %+v leaves the island", z, r)
		}
	}
}

func TestCentralZoneSmall(t *testing.T) {
	// §6.1.3: the central zone occupies ~6% of the total area.
	area := func(r geo.Rect) float64 {
		return (r.MaxLat - r.MinLat) * (r.MaxLon - r.MinLon)
	}
	frac := area(zoneRects[Central]) / area(Island)
	if frac < 0.03 || frac > 0.12 {
		t.Errorf("central zone is %.1f%% of the island, want ~6%%", frac*100)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(42, 1)
	b := Generate(42, 1)
	if len(a.Landmarks) != len(b.Landmarks) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Landmarks), len(b.Landmarks))
	}
	for i := range a.Landmarks {
		if a.Landmarks[i] != b.Landmarks[i] {
			t.Fatalf("landmark %d differs between equal-seed generations", i)
		}
	}
	c := Generate(43, 1)
	same := 0
	for i := range a.Landmarks {
		if i < len(c.Landmarks) && a.Landmarks[i].Pos == c.Landmarks[i].Pos {
			same++
		}
	}
	if same == len(a.Landmarks) {
		t.Fatal("different seeds produced identical cities")
	}
}

func TestGenerateCategoryMix(t *testing.T) {
	m := Generate(1, 1)
	if len(m.Landmarks) < 150 || len(m.Landmarks) > 210 {
		t.Fatalf("generated %d landmarks, want ~180", len(m.Landmarks))
	}
	counts := map[Category]int{}
	for _, lm := range m.Landmarks {
		counts[lm.Category]++
	}
	total := float64(len(m.Landmarks))
	// MRT & Bus should dominate at roughly half (Table 4: 48.3%).
	if frac := float64(counts[MRTBus]) / total; frac < 0.35 || frac > 0.60 {
		t.Errorf("MRT&Bus fraction = %.2f, want ~0.48", frac)
	}
	for c := Category(0); int(c) < NumCategories; c++ {
		if counts[c] == 0 {
			t.Errorf("category %v has no landmarks", c)
		}
	}
}

func TestGenerateZonePlacement(t *testing.T) {
	m := Generate(2, 1)
	for _, lm := range m.Landmarks {
		if ZoneOf(lm.Pos) != lm.Zone {
			t.Errorf("landmark %q recorded zone %v but located in %v", lm.Name, lm.Zone, ZoneOf(lm.Pos))
		}
		if !Island.Contains(lm.Pos) {
			t.Errorf("landmark %q outside the island", lm.Name)
		}
	}
	central := 0
	for _, lm := range m.Landmarks {
		if lm.Zone == Central {
			central++
		}
	}
	if central < len(m.Landmarks)/5 {
		t.Errorf("central zone has %d of %d landmarks; expected the largest share", central, len(m.Landmarks))
	}
}

func TestTaxiStandsHaveLots(t *testing.T) {
	m := Generate(3, 1)
	stands := m.TaxiStands()
	if len(stands) < 20 {
		t.Fatalf("only %d taxi stands generated", len(stands))
	}
	for _, s := range stands {
		if s.Lots < 3 {
			t.Errorf("stand %q has %d lots, want >= 3", s.Name, s.Lots)
		}
	}
}

func TestSpecialLandmarksPresent(t *testing.T) {
	m := Generate(4, 1)
	lp, ok := m.Find("Lucky Plaza")
	if !ok {
		t.Fatal("Lucky Plaza missing")
	}
	if lp.Zone != Central || lp.Category != MallHotel {
		t.Errorf("Lucky Plaza misconfigured: %+v", lp)
	}
	park, ok := m.Find("West Leisure Park")
	if !ok {
		t.Fatal("West Leisure Park missing")
	}
	if !park.WeekendOnly || park.Zone != West {
		t.Errorf("leisure park misconfigured: %+v", park)
	}
}

func TestRatesAtShape(t *testing.T) {
	m := Generate(5, 1)
	lp, _ := m.Find("Lucky Plaza")
	// Shopping profile: 3 AM demand must be far below 6 PM demand.
	night := RatesAt(lp, 3, Weekday)
	evening := RatesAt(lp, 18, Weekday)
	if night.PassengersPerHour >= evening.PassengersPerHour/3 {
		t.Errorf("mall demand at 3AM (%.1f) not far below 6PM (%.1f)",
			night.PassengersPerHour, evening.PassengersPerHour)
	}
	// Weekend demand at a mall exceeds weekday demand.
	wd := RatesAt(lp, 14, Weekday)
	we := RatesAt(lp, 14, Weekend)
	if we.PassengersPerHour <= wd.PassengersPerHour {
		t.Errorf("mall weekend demand %.1f not above weekday %.1f",
			we.PassengersPerHour, wd.PassengersPerHour)
	}
}

func TestRatesAtCommuterWeekendCollapse(t *testing.T) {
	lm := Landmark{Category: Office, Profile: ProfileCommuter, Lots: 2}
	wd := RatesAt(lm, 8, Weekday)
	we := RatesAt(lm, 8, Weekend)
	if we.PassengersPerHour > wd.PassengersPerHour*0.6 {
		t.Errorf("office weekend demand %.1f not well below weekday %.1f",
			we.PassengersPerHour, wd.PassengersPerHour)
	}
}

func TestRatesAtWeekendOnly(t *testing.T) {
	lm := Landmark{Category: Attraction, Profile: ProfileShopping, Lots: 2, WeekendOnly: true}
	if r := RatesAt(lm, 14, Weekday); r.PassengersPerHour != 0 || r.TaxisPerHour != 0 {
		t.Errorf("weekend-only landmark active on a weekday: %+v", r)
	}
	if r := RatesAt(lm, 14, Weekend); r.PassengersPerHour <= 0 {
		t.Error("weekend-only landmark inactive on a weekend")
	}
}

func TestRatesAtAirportTaxiRich(t *testing.T) {
	lm := Landmark{Category: AirportFerry, Profile: ProfileAirport, Lots: 4}
	r := RatesAt(lm, 17, Weekday)
	if r.TaxisPerHour <= r.PassengersPerHour {
		t.Errorf("airport should be taxi-rich: taxis %.1f vs passengers %.1f",
			r.TaxisPerHour, r.PassengersPerHour)
	}
}

func TestRatesAtInvalidHour(t *testing.T) {
	lm := Landmark{Category: MRTBus, Profile: ProfileCommuter, Lots: 1}
	if r := RatesAt(lm, -1, Weekday); r.PassengersPerHour != 0 {
		t.Error("negative hour returned rates")
	}
	if r := RatesAt(lm, 24, Weekday); r.PassengersPerHour != 0 {
		t.Error("hour 24 returned rates")
	}
}

func TestDayKindOf(t *testing.T) {
	want := map[int]DayKind{0: Weekend, 1: Weekday, 5: Weekday, 6: Weekend}
	for wd, k := range want {
		if got := DayKindOf(wd); got != k {
			t.Errorf("DayKindOf(%d) = %v, want %v", wd, got, k)
		}
	}
}

func TestNearestLandmark(t *testing.T) {
	m := Generate(6, 1)
	lp, _ := m.Find("Lucky Plaza")
	probe := geo.Offset(lp.Pos, 5, 5)
	got, d, ok := m.NearestLandmark(probe)
	if !ok {
		t.Fatal("NearestLandmark failed")
	}
	if got.Name != "Lucky Plaza" {
		t.Fatalf("nearest to Lucky Plaza + 7m = %q (%.1f m away)", got.Name, d)
	}
	if math.Abs(d-7.07) > 0.5 {
		t.Errorf("distance = %.2f, want ~7.07", d)
	}
	var empty Map
	if _, _, ok := empty.NearestLandmark(probe); ok {
		t.Error("NearestLandmark on empty map returned ok")
	}
}

func TestGenerateScale(t *testing.T) {
	small := Generate(7, 0.25)
	full := Generate(7, 1)
	if len(small.Landmarks) >= len(full.Landmarks) {
		t.Fatalf("scale 0.25 produced %d landmarks vs %d at scale 1",
			len(small.Landmarks), len(full.Landmarks))
	}
	if len(small.Landmarks) < NumCategories {
		t.Fatalf("scaled-down map lost categories: %d landmarks", len(small.Landmarks))
	}
	zero := Generate(7, 0) // treated as scale 1
	if len(zero.Landmarks) != len(full.Landmarks) {
		t.Fatal("scale 0 did not default to 1")
	}
}
