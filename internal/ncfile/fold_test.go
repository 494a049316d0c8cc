package ncfile

import "testing"

// TestUnitShape pins how FoldVara cuts slabs into units: as large as
// foldUnit (8,192 elements) allows, whole rows, and the slab's leading
// dimensions fixed until the rest fits.
func TestUnitShape(t *testing.T) {
	for _, c := range []struct {
		count []int64
		d     int
		span  int64
	}{
		{[]int64{40, 8, 1024}, 0, 1},     // paper_cc: a time step of a rank's 8 rows
		{[]int64{64, 8, 128}, 0, 8},      // eight steps of 1,024 elements
		{[]int64{2, 3}, 0, 2},            // a slab that fits is one unit
		{[]int64{1, 4, 16, 1024}, 2, 8},  // count-1 dimensions in front
		{[]int64{3, 5, 13, 1000}, 2, 8},  // 13 rows go 8 and 5
		{[]int64{1, 2, 20000}, 1, 1},     // rows longer than a unit: one each
		{[]int64{1, 1, 19000}, 1, 1},     // a single row is never cut
		{[]int64{100000, 1, 1}, 0, 8192}, // a point's time series
		{[]int64{50000}, 0, 50000},       // one dimension: one row
		{[]int64{2, 4, 4, 1024}, 1, 2},   // two of the four 4x1024 planes a unit
		{[]int64{7, 8193, 1}, 1, 8192},   // 8,193 one-element rows go 8,192 and 1
	} {
		d, span := unitShape(c.count)
		if d != c.d || span != c.span {
			t.Errorf("unitShape(%v) = %d, %d; want %d, %d", c.count, d, span, c.d, c.span)
		}
	}
}
