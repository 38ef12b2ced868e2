// Package citymap provides a deterministic synthetic Singapore: the four
// rectangular analysis zones of Fig. 5, a landmark registry with the
// category mix of Table 4, the LTA-style taxi-stand registry of §6.1.3, and
// per-category hourly demand/supply profiles that drive the simulator.
//
// The real system used Singapore's actual geography, the LTA taxi-stand
// list and Google-Maps landmark labelling; none of those are available
// offline, so this package is the substitution documented in DESIGN.md.
package citymap

import (
	"fmt"
	"math/rand"

	"taxiqueue/internal/geo"
)

// Zone identifies one of the four rectangular zones of Fig. 5.
type Zone uint8

const (
	// Central covers the CBD, Orchard Road and most tourist attractions;
	// it is ~6% of the island's area but has the most queue spots.
	Central Zone = iota
	// North is the northern residential/industrial belt.
	North
	// West is the western residential/industrial belt.
	West
	// East is the eastern belt including Changi airport.
	East

	// NumZones is the number of analysis zones.
	NumZones = 4
)

var zoneNames = [NumZones]string{"Central", "North", "West", "East"}

// String implements fmt.Stringer.
func (z Zone) String() string {
	if int(z) < NumZones {
		return zoneNames[z]
	}
	return fmt.Sprintf("Zone(%d)", uint8(z))
}

// Island is the bounding box of synthetic Singapore: roughly 50 km wide and
// 26 km tall, matching the dimensions quoted in §6.1.3.
var Island = geo.Rect{MinLat: 1.220, MinLon: 103.600, MaxLat: 1.460, MaxLon: 104.045}

// zoneRects partitions the island into the four zones. Central is the small
// CBD rectangle; West/East flank it; North sits above it.
var zoneRects = [NumZones]geo.Rect{
	Central: {MinLat: 1.250, MinLon: 103.790, MaxLat: 1.320, MaxLon: 103.880},
	North:   {MinLat: 1.320, MinLon: 103.790, MaxLat: 1.460, MaxLon: 103.880},
	West:    {MinLat: 1.220, MinLon: 103.600, MaxLat: 1.460, MaxLon: 103.790},
	East:    {MinLat: 1.220, MinLon: 103.880, MaxLat: 1.460, MaxLon: 104.045},
}

// innerMargin insets the drivable frame from the island boundary so that
// GPS jitter on legitimate records never crosses it: only injected
// urban-canyon outliers land outside the Island frame.
const innerMargin = 0.004 // degrees, ~440 m

// IslandClamp clamps p into the drivable inner frame (taxis cannot drive
// into the sea; the simulator's random walk uses this).
func IslandClamp(p geo.Point) geo.Point {
	if p.Lat < Island.MinLat+innerMargin {
		p.Lat = Island.MinLat + innerMargin
	}
	if p.Lat > Island.MaxLat-innerMargin {
		p.Lat = Island.MaxLat - innerMargin
	}
	if p.Lon < Island.MinLon+innerMargin {
		p.Lon = Island.MinLon + innerMargin
	}
	if p.Lon > Island.MaxLon-innerMargin {
		p.Lon = Island.MaxLon - innerMargin
	}
	return p
}

// ZoneOf classifies p into a zone. Points inside the Central rectangle are
// Central; remaining points go to West/East by longitude and otherwise
// North. Points south of Central between its longitudes (sea, mostly) also
// resolve to Central so every island point has a zone.
func ZoneOf(p geo.Point) Zone {
	if zoneRects[Central].Contains(p) {
		return Central
	}
	if p.Lon < zoneRects[Central].MinLon {
		return West
	}
	if p.Lon > zoneRects[Central].MaxLon {
		return East
	}
	if p.Lat >= zoneRects[Central].MaxLat {
		return North
	}
	return Central
}

// Category labels a landmark with the Table 4 taxonomy.
type Category uint8

const (
	// MRTBus is a Mass Rapid Transit or bus station.
	MRTBus Category = iota
	// MallHotel is a shopping mall or hotel.
	MallHotel
	// Office is an office building.
	Office
	// HospitalSchool is a hospital or school.
	HospitalSchool
	// Attraction is a tourist attraction.
	Attraction
	// AirportFerry is an airport or ferry terminal.
	AirportFerry
	// IndustrialResidential is an industrial or residential area.
	IndustrialResidential

	// NumCategories is the number of landmark categories.
	NumCategories = 7
)

var categoryNames = [NumCategories]string{
	"MRT & BUS station",
	"Shopping Mall & Hotel",
	"Office Building",
	"Hospital & School",
	"Tourist Attraction",
	"Airport & Ferry Terminal",
	"Industrial and Residential Area",
}

// String implements fmt.Stringer with the Table 4 spelling.
func (c Category) String() string {
	if int(c) < NumCategories {
		return categoryNames[c]
	}
	return fmt.Sprintf("Category(%d)", uint8(c))
}

// Landmark is a public facility that anchors a potential queue spot.
type Landmark struct {
	Name     string
	Category Category
	Pos      geo.Point
	Zone     Zone
	// TaxiStand marks official LTA taxi stands (§6.1.3: 31 CBD stands
	// with >= 3 parking lots).
	TaxiStand bool
	// RegisteredPos is the stand's surveyed coordinate in the official
	// registry, a few meters off the actual queue area (the paper
	// attributes its 7.6 m mean location error to exactly this kind of
	// GPS/survey mismatch). Zero for non-stands.
	RegisteredPos geo.Point
	// Lots is the number of taxi parking lots (boarding bays).
	Lots int
	// Profile indexes the demand/supply profile family for this landmark.
	Profile ProfileKind
	// WeekendOnly landmarks (the §7.2 "sporadic" leisure park) generate
	// demand only on Saturday/Sunday.
	WeekendOnly bool
}

// ProfileKind selects an hourly demand/supply shape.
type ProfileKind uint8

const (
	// ProfileCommuter peaks at weekday rush hours (MRT/bus, office).
	ProfileCommuter ProfileKind = iota
	// ProfileShopping peaks middays/evenings and on weekends (malls).
	ProfileShopping
	// ProfileAirport is flat and heavy around flight banks (airport).
	ProfileAirport
	// ProfileHospital peaks in the morning, weekday-only.
	ProfileHospital
	// ProfileNightlife peaks near midnight (attraction/club districts).
	ProfileNightlife
	// ProfileResidential has small morning-out/evening-in bumps.
	ProfileResidential
)

// Rates gives the expected passenger and FREE-taxi arrivals per hour at a
// landmark for one hour-of-day, already scaled by the landmark's size.
type Rates struct {
	PassengersPerHour float64
	TaxisPerHour      float64
	// BookingFraction is the share of passengers who book instead of
	// queueing (Singapore booking fee keeps this low, §5.3).
	BookingFraction float64
}

// hourShape curves are unit-less multipliers per hour of day, normalized so
// peak = 1.
var hourShapes = map[ProfileKind][24]float64{
	ProfileCommuter: {
		0.18, 0.16, 0.15, 0.15, 0.17, 0.27, 0.55, 0.95, 1.00, 0.65,
		0.45, 0.50, 0.55, 0.50, 0.45, 0.50, 0.60, 0.85, 1.00, 0.85,
		0.60, 0.45, 0.30, 0.20,
	},
	ProfileShopping: {
		0.22, 0.17, 0.15, 0.15, 0.15, 0.17, 0.20, 0.24, 0.30, 0.45,
		0.60, 0.80, 0.90, 0.95, 0.95, 0.95, 0.95, 1.00, 1.00, 0.95,
		0.80, 0.60, 0.45, 0.32,
	},
	ProfileAirport: {
		0.55, 0.45, 0.35, 0.30, 0.40, 0.60, 0.80, 0.90, 0.90, 0.85,
		0.80, 0.80, 0.85, 0.90, 0.90, 0.90, 0.95, 1.00, 1.00, 0.95,
		0.90, 0.85, 0.75, 0.65,
	},
	ProfileHospital: {
		0.11, 0.10, 0.10, 0.10, 0.11, 0.18, 0.45, 0.85, 1.00, 0.95,
		0.85, 0.75, 0.70, 0.70, 0.65, 0.60, 0.55, 0.50, 0.40, 0.25,
		0.16, 0.12, 0.10, 0.08,
	},
	ProfileNightlife: {
		1.00, 0.90, 0.60, 0.30, 0.12, 0.05, 0.04, 0.05, 0.08, 0.10,
		0.12, 0.18, 0.22, 0.25, 0.25, 0.28, 0.32, 0.40, 0.50, 0.60,
		0.70, 0.80, 0.90, 1.00,
	},
	ProfileResidential: {
		0.15, 0.13, 0.12, 0.12, 0.14, 0.22, 0.50, 0.80, 0.70, 0.45,
		0.35, 0.35, 0.35, 0.32, 0.32, 0.35, 0.45, 0.60, 0.70, 0.60,
		0.45, 0.35, 0.25, 0.15,
	},
}

// profileFor maps a landmark category to its default profile kind.
func profileFor(c Category) ProfileKind {
	switch c {
	case MRTBus, Office:
		return ProfileCommuter
	case MallHotel:
		return ProfileShopping
	case AirportFerry:
		return ProfileAirport
	case HospitalSchool:
		return ProfileHospital
	case Attraction:
		return ProfileNightlife
	default:
		return ProfileResidential
	}
}

// baseRates gives peak-hour passenger/taxi arrival magnitudes per category.
// Taxi supply relative to passenger demand controls the C1/C2/C3 balance:
//   - taxi-rich spots (airport, CBD stands) produce taxi queues (C1/C3)
//   - demand-rich spots (malls at peak) produce passenger queues (C1/C2)
var baseRates = [NumCategories]Rates{
	MRTBus:                {PassengersPerHour: 44, TaxisPerHour: 46, BookingFraction: 0.12},
	MallHotel:             {PassengersPerHour: 50, TaxisPerHour: 32, BookingFraction: 0.20},
	Office:                {PassengersPerHour: 38, TaxisPerHour: 30, BookingFraction: 0.24},
	HospitalSchool:        {PassengersPerHour: 30, TaxisPerHour: 28, BookingFraction: 0.20},
	Attraction:            {PassengersPerHour: 36, TaxisPerHour: 34, BookingFraction: 0.12},
	AirportFerry:          {PassengersPerHour: 68, TaxisPerHour: 80, BookingFraction: 0.06},
	IndustrialResidential: {PassengersPerHour: 14, TaxisPerHour: 13, BookingFraction: 0.14},
}

// DayKind distinguishes the weekday/weekend regimes (§7.1 runs the two
// separately).
type DayKind uint8

const (
	// Weekday is Monday-Friday.
	Weekday DayKind = iota
	// Weekend is Saturday-Sunday.
	Weekend
)

// DayKindOf maps a Go weekday (0=Sunday) to a DayKind.
func DayKindOf(weekday int) DayKind {
	if weekday == 0 || weekday == 6 {
		return Weekend
	}
	return Weekday
}

// weekendDemandFactor scales passenger demand on weekends per profile:
// commuter traffic collapses, shopping rises (§6.1.3, Table 6).
var weekendDemandFactor = map[ProfileKind]float64{
	ProfileCommuter:    0.35,
	ProfileShopping:    1.25,
	ProfileAirport:     1.10,
	ProfileHospital:    0.30,
	ProfileNightlife:   1.30,
	ProfileResidential: 0.90,
}

// RatesAt returns the expected arrival rates at landmark lm during the
// given hour of day (0-23) and day kind. Size scales with Lots.
func RatesAt(lm Landmark, hour int, day DayKind) Rates {
	if hour < 0 || hour > 23 {
		return Rates{}
	}
	if lm.WeekendOnly && day != Weekend {
		return Rates{BookingFraction: baseRates[lm.Category].BookingFraction}
	}
	base := baseRates[lm.Category]
	shape := hourShapes[lm.Profile][hour]
	size := 0.6 + 0.2*float64(lm.Lots)
	demand := base.PassengersPerHour * shape * size
	supply := base.TaxisPerHour * shape * size
	if day == Weekend {
		f := weekendDemandFactor[lm.Profile]
		demand *= f
		// Taxi supply redistributes more slowly than demand: drivers keep
		// cruising their weekday haunts, so weekend supply shrinks less
		// than demand but still substantially. Quiet commuter spots with a
		// thin trickle of long-waiting taxis are what push the Sunday C4
		// share up in Fig. 9.
		supply *= 0.7*f + 0.3
	}
	return Rates{
		PassengersPerHour: demand,
		TaxisPerHour:      supply,
		BookingFraction:   base.BookingFraction,
	}
}

// Map is the full synthetic city: landmarks with positions and profiles.
type Map struct {
	Landmarks []Landmark
}

// categoryPlan drives Generate: target counts per category for a ~180-spot
// city matching the Table 4 mix, and how many land in each zone.
type categoryPlan struct {
	cat       Category
	count     int
	zoneDist  [NumZones]float64 // probability of each zone
	standFrac float64           // fraction that are official taxi stands
}

var defaultPlan = []categoryPlan{
	{MRTBus, 87, [NumZones]float64{0.34, 0.22, 0.22, 0.22}, 0.30},
	{MallHotel, 21, [NumZones]float64{0.62, 0.13, 0.12, 0.13}, 0.45},
	{Office, 17, [NumZones]float64{0.70, 0.10, 0.10, 0.10}, 0.40},
	{HospitalSchool, 15, [NumZones]float64{0.30, 0.24, 0.23, 0.23}, 0.30},
	{Attraction, 11, [NumZones]float64{0.60, 0.10, 0.15, 0.15}, 0.25},
	{AirportFerry, 10, [NumZones]float64{0.10, 0.10, 0.10, 0.70}, 0.60},
	{IndustrialResidential, 8, [NumZones]float64{0.10, 0.30, 0.35, 0.25}, 0.10},
}

// Generate builds a deterministic synthetic city with roughly
// 180*scale landmarks in the Table 4 category mix. scale=1 matches the
// paper's spot count; smaller scales keep tests fast. The same seed always
// yields the same city.
func Generate(seed int64, scale float64) *Map {
	if scale <= 0 {
		scale = 1
	}
	rng := rand.New(rand.NewSource(seed))
	m := &Map{}
	serial := 0
	for _, plan := range defaultPlan {
		n := int(float64(plan.count)*scale + 0.5)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			z := sampleZone(rng, plan.zoneDist)
			pos := randomPointInZone(rng, z)
			serial++
			lots := 1 + rng.Intn(3)
			stand := rng.Float64() < plan.standFrac
			var regPos geo.Point
			if stand {
				lots = 3 + rng.Intn(3) // stands have >= 3 lots (§6.1.3)
				regPos = geo.Offset(pos, rng.NormFloat64()*6, rng.NormFloat64()*6)
			}
			m.Landmarks = append(m.Landmarks, Landmark{
				Name:          fmt.Sprintf("%s #%d", shortName(plan.cat), serial),
				Category:      plan.cat,
				Pos:           pos,
				Zone:          z,
				TaxiStand:     stand,
				RegisteredPos: regPos,
				Lots:          lots,
				Profile:       profileFor(plan.cat),
			})
		}
	}
	// The §7.2 sporadic weekend-only leisure park in the West zone.
	serial++
	m.Landmarks = append(m.Landmarks, Landmark{
		Name:        "West Leisure Park",
		Category:    Attraction,
		Pos:         randomPointInZone(rng, West),
		Zone:        West,
		Lots:        2,
		Profile:     ProfileShopping,
		WeekendOnly: true,
	})
	// A named Lucky Plaza analogue for the Table 9 case study: a Central
	// mall with nightlife spillover.
	serial++
	lpPos := geo.Point{Lat: 1.3044, Lon: 103.8335}
	m.Landmarks = append(m.Landmarks, Landmark{
		Name:     "Lucky Plaza",
		Category: MallHotel,
		Pos:      lpPos,
		Zone:     Central,
		Lots:     3, TaxiStand: true,
		RegisteredPos: geo.Offset(lpPos, rng.NormFloat64()*6, rng.NormFloat64()*6),
		Profile:       ProfileShopping,
	})
	return m
}

func shortName(c Category) string {
	switch c {
	case MRTBus:
		return "MRT"
	case MallHotel:
		return "Mall"
	case Office:
		return "Office"
	case HospitalSchool:
		return "Hospital"
	case Attraction:
		return "Attraction"
	case AirportFerry:
		return "Airport"
	default:
		return "Residential"
	}
}

func sampleZone(rng *rand.Rand, dist [NumZones]float64) Zone {
	u := rng.Float64()
	acc := 0.0
	for z := 0; z < NumZones; z++ {
		acc += dist[z]
		if u < acc {
			return Zone(z)
		}
	}
	return East
}

func randomPointInZone(rng *rand.Rand, z Zone) geo.Point {
	r := zoneRects[z]
	// Inset 5% from the edges so landmark polygons stay inside the zone.
	dLat := (r.MaxLat - r.MinLat) * 0.05
	dLon := (r.MaxLon - r.MinLon) * 0.05
	return geo.Point{
		Lat: r.MinLat + dLat + rng.Float64()*(r.MaxLat-r.MinLat-2*dLat),
		Lon: r.MinLon + dLon + rng.Float64()*(r.MaxLon-r.MinLon-2*dLon),
	}
}

// TaxiStands returns the landmarks flagged as official taxi stands.
func (m *Map) TaxiStands() []Landmark {
	var out []Landmark
	for _, lm := range m.Landmarks {
		if lm.TaxiStand {
			out = append(out, lm)
		}
	}
	return out
}

// Find returns the landmark with the given name.
func (m *Map) Find(name string) (Landmark, bool) {
	for _, lm := range m.Landmarks {
		if lm.Name == name {
			return lm, true
		}
	}
	return Landmark{}, false
}

// NearestLandmark returns the landmark closest to p and its distance in
// meters. ok is false when the map is empty.
func (m *Map) NearestLandmark(p geo.Point) (lm Landmark, meters float64, ok bool) {
	best := -1
	bestD := 0.0
	for i, cand := range m.Landmarks {
		d := geo.Equirect(p, cand.Pos)
		if best == -1 || d < bestD {
			best, bestD = i, d
		}
	}
	if best == -1 {
		return Landmark{}, 0, false
	}
	return m.Landmarks[best], bestD, true
}
