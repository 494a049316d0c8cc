package cluster

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestTimeUnitScalesTheWholeModel: Spec.TimeUnit reaches every float64
// field of the machine's cost model, fabric.Params and pfs.Params, by
// reflection, so a constant added to either and left out of its Scale fails
// here. A time (a latency, an overhead, a per-operation cost) is multiplied
// by the unit and a rate (a *Bandwidth or *Rate) divided; a shape value
// (ranks per node, OSTs, stripe size) does not move. TimeUnit 0 is 1.
func TestTimeUnitScalesTheWholeModel(t *testing.T) {
	model := func(unit float64) []reflect.Value {
		c := New(Spec{Ranks: 1, TimeUnit: unit})
		return []reflect.Value{reflect.ValueOf(c.World().Net().Params()), reflect.ValueOf(c.FS().Params())}
	}
	base := model(0)
	if !reflect.DeepEqual(base[0].Interface(), model(1)[0].Interface()) ||
		!reflect.DeepEqual(base[1].Interface(), model(1)[1].Interface()) {
		t.Fatal("TimeUnit 0 and 1 build different models")
	}
	for _, k := range []float64{0.5, 2, 8} {
		for i, got := range model(k) {
			want := base[i]
			for j := 0; j < want.NumField(); j++ {
				name := want.Type().String() + "." + want.Type().Field(j).Name
				w, g := want.Field(j), got.Field(j)
				if w.Kind() != reflect.Float64 {
					if !reflect.DeepEqual(w.Interface(), g.Interface()) {
						t.Errorf("unit %g moved the shape value %s: %v -> %v", k, name, w, g)
					}
					continue
				}
				scaled := k * w.Float()
				if strings.HasSuffix(name, "Bandwidth") || strings.HasSuffix(name, "Rate") {
					scaled = w.Float() / k
				}
				if w.Float() == 0 || g.Float() != scaled {
					t.Errorf("unit %g: %s = %g, want %g (from %g)", k, name, g.Float(), scaled, w.Float())
				}
			}
		}
	}
}

// TestNewRejectsBadTimeUnit: a NaN, infinite or negative Spec.TimeUnit is
// refused at New, naming the field, as Ranks ≤ 0 is. Each was accepted: a
// NaN unit never ended a run of two barriers around a Compute, a negative
// one returned a positive makespan and +Inf returned +Inf.
func TestNewRejectsBadTimeUnit(t *testing.T) {
	for _, unit := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -0.5} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "Spec.TimeUnit") {
					t.Errorf("TimeUnit %v: New recovered %v, want a panic naming Spec.TimeUnit", unit, r)
				}
			}()
			New(Spec{Ranks: 4, TimeUnit: unit})
		}()
	}
}
