package experiments

import (
	"math"
	"testing"

	"repro/internal/cc"
)

// TestFigureLegsAgree: the legs a figure compares read the same data. At
// -quick, one declared point each of Figures 9, 10 and 11 (MPI-40G vs CC-40G),
// every collective-buffer size of Figure 12, and every leg of the faults
// experiment's level 1 against its fault-free leg reach root Sums within 1e-9
// relative of each other: only the order of the additions may differ.
func TestFigureLegsAgree(t *testing.T) {
	cfg := Config{Quick: true}
	const spe = 2e-8 // moves time, not values
	pair := func(a, b leg) []leg { return []leg{a, b} }
	fig10 := fig10Points(cfg)
	fig11, _ := fig11Points(cfg)
	faults, err := newFaultSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	level1 := faults.level(1)
	for _, fig := range []struct {
		id   string
		legs []leg
	}{
		{"fig9", pair(fig9Bench(cfg).legs("fig9", spe))},
		{"fig10", pair(fig10[len(fig10)-1].legs("fig10", spe))},
		{"fig11", pair(fig11[0][0].legs("fig11", spe))},
		{"fig12", fig12Legs(cfg)},
		{"faults", append([]leg{faults.cc}, level1[:]...)},
	} {
		var want float64
		for i, l := range fig.legs {
			run, err := Config{}.runLeg(l)
			if err != nil {
				t.Fatalf("%s leg %d: %v", fig.id, i, err)
			}
			got := run.root.Value
			if i == 0 {
				want = got
				if got == 0 || math.IsNaN(got) {
					t.Fatalf("%s: the first leg's Sum is %v", fig.id, got)
				}
			} else if math.Abs(got-want) > 1e-9*math.Abs(want) {
				t.Errorf("%s: leg %d sums to %.17g, leg 0 to %.17g", fig.id, i, got, want)
			}
		}
	}
}

// TestSameLoc: Figure 13's legs agree only on bit-identical locations.
func TestSameLoc(t *testing.T) {
	loc := func(v float64, valid bool, coords ...int64) cc.Loc {
		return cc.Loc{Val: v, Coords: coords, Valid: valid}
	}
	eye := loc(912.25, true, 3, 40, 41)
	for _, tc := range []struct {
		name string
		a, b cc.Loc
		want bool
	}{
		{"equal", eye, loc(912.25, true, 3, 40, 41), true},
		{"a NaN equals itself", loc(math.NaN(), true, 3, 40, 41), loc(math.NaN(), true, 3, 40, 41), true},
		{"a NaN against a value", loc(math.NaN(), true, 3, 40, 41), eye, false},
		{"zeros of two signs", loc(0, true, 1), loc(math.Copysign(0, -1), true, 1), false},
		{"the last coordinate", eye, loc(912.25, true, 3, 40, 42), false},
		{"the first coordinate", eye, loc(912.25, true, 4, 40, 41), false},
		{"a missing coordinate", eye, loc(912.25, true, 3, 40), false},
		{"validity", eye, loc(912.25, false, 3, 40, 41), false},
		{"two empty states", cc.Loc{}, cc.Loc{}, true},
	} {
		if got := sameLoc(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: sameLoc(%+v, %+v) = %v, want %v", tc.name, tc.a, tc.b, got, tc.want)
		}
		if got := sameLoc(tc.b, tc.a); got != tc.want {
			t.Errorf("%s, swapped: sameLoc = %v, want %v", tc.name, got, tc.want)
		}
	}
}
