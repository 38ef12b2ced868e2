package experiments

import (
	"fmt"
	"strings"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/core"
	"taxiqueue/internal/geo"
	"taxiqueue/internal/report"
	"taxiqueue/internal/transition"
)

// Transitions builds the §7.1 long-term queue-type transition report: the
// week's slot-to-slot transition matrix pooled over the context spots, each
// context's persistence, and the busiest spot's typical day.
func (s *Suite) Transitions() (*transition.Report, string, error) {
	// Pool the week's label sequences; track the busiest spot of the week
	// by matching spots across days through their positions.
	first, err := s.Day(Weekdays[0])
	if err != nil {
		return nil, "", err
	}
	if len(first.Result.Spots) == 0 {
		return nil, "", fmt.Errorf("experiments: no spots detected")
	}
	busiestPos := first.Result.Spots[0].Spot.Pos

	pooled := transition.NewReport(first.Grid.Slots)
	busiest := transition.NewReport(first.Grid.Slots)
	for _, wd := range Weekdays {
		d, err := s.Day(wd)
		if err != nil {
			return nil, "", err
		}
		sel := s.contextSpotSelection(d.Result, s.Cfg.ContextSpots)
		for _, i := range sel {
			pooled.AddDay(d.Result.Spots[i].Labels)
		}
		for i := range d.Result.Spots {
			if geo.Equirect(d.Result.Spots[i].Spot.Pos, busiestPos) < 30 {
				busiest.AddDay(d.Result.Spots[i].Labels)
				break
			}
		}
	}

	var b strings.Builder
	b.WriteString("§7.1 Long-term queue-type transition report (7 days)\n\n")
	b.WriteString("Slot-to-slot transition probabilities (pooled over context spots):\n")
	b.WriteString(pooled.Transitions.Normalize().String())

	pers := pooled.Persistence()
	t := report.NewTable("\nContext persistence (P[next slot keeps the context])",
		"Queue type", "Persistence")
	for _, q := range queueTypeOrder {
		t.AddRow(q.String(), report.F2(pers[q]))
	}
	b.WriteString(t.String())

	b.WriteString("\nBusiest spot's typical day (modal context per slot over the week):\n")
	b.WriteString(busiest.TypicalDay(int(first.Grid.SlotLen.Minutes())))
	return pooled, b.String(), nil
}

// Registry builds the §7.1 weekday/weekend spot registries from the week's
// detections and reports the stable/sporadic split — including the §7.2
// sporadic weekend-only leisure park.
func (s *Suite) Registry() (map[citymap.DayKind][]core.RegistrySpot, string, error) {
	daySets := map[time.Weekday][]core.QueueSpot{}
	for _, wd := range Weekdays {
		d, err := s.Day(wd)
		if err != nil {
			return nil, "", err
		}
		spots := make([]core.QueueSpot, len(d.Result.Spots))
		for i := range d.Result.Spots {
			spots[i] = d.Result.Spots[i].Spot
		}
		daySets[wd] = spots
	}
	regs := core.BuildDayTypeRegistries(daySets)

	t := report.NewTable("§7.1 Multi-day queue-spot registries",
		"Registry", "Stable spots", "Sporadic spots")
	for _, k := range []citymap.DayKind{citymap.Weekday, citymap.Weekend} {
		name := "weekday (5 days)"
		if k == citymap.Weekend {
			name = "weekend (2 days)"
		}
		t.AddRow(name,
			fmt.Sprint(len(core.Stable(regs[k]))),
			fmt.Sprint(len(core.Sporadics(regs[k]))))
	}
	var b strings.Builder
	b.WriteString(t.String())
	// The §7.2 sporadic example: the weekend-only leisure park.
	if park, ok := s.City.Find("West Leisure Park"); ok {
		inWeekday, inWeekend := registryHas(regs[citymap.Weekday], park.Pos), registryHas(regs[citymap.Weekend], park.Pos)
		fmt.Fprintf(&b, "\nWest Leisure Park (weekend-only, §7.2): weekday registry=%v, weekend registry=%v\n",
			inWeekday, inWeekend)
	}
	return regs, b.String(), nil
}

func registryHas(reg []core.RegistrySpot, pos geo.Point) bool {
	for _, s := range reg {
		if geo.Equirect(s.Pos, pos) < 30 {
			return true
		}
	}
	return false
}
