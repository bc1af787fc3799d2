package kernel

import "testing"

// FloorplanMemoSlots is twice the distinct-multiset bound over the
// groups of bit-identical area columns, capped, and 0 without a group.
func TestMemoSlotsFromAreaColumns(t *testing.T) {
	col := func(rows ...[]float64) []float64 {
		var out []float64
		for _, r := range rows {
			out = append(out, r...)
		}
		return out
	}
	ccd := []float64{70, 90, 120}
	for _, tc := range []struct {
		name  string
		areas []float64
		nc, r int
		want  int
	}{
		// 8 identical CCDs and one IO die over 3 nodes:
		// 2 · C(10, 2) · 3 = 270.
		{"epyc", col(ccd, ccd, ccd, ccd, ccd, ccd, ccd, ccd, []float64{400, 410, 420}), 9, 3, 270},
		// Two pairs over 2 nodes: 2 · C(3, 1) · C(3, 1) = 18.
		{"two pairs", col([]float64{1, 2}, []float64{3, 4}, []float64{1, 2}, []float64{3, 4}), 4, 2, 18},
		// Equal values in a different node order are different columns.
		{"distinct", col([]float64{1, 2}, []float64{2, 1}, []float64{3, 4}), 3, 2, 0},
		// 2 identical + 7 distinct over 2 nodes: 2 · C(3, 1) · 2^7 = 768.
		{"pair", col(ccd[:2], ccd[:2], []float64{1, 2}, []float64{3, 4}, []float64{5, 6}, []float64{7, 8},
			[]float64{9, 10}, []float64{11, 12}, []float64{13, 14}), 9, 2, 768},
		// One distinct die more: 1536, past the cap.
		{"capped", col(ccd[:2], ccd[:2], []float64{1, 2}, []float64{3, 4}, []float64{5, 6}, []float64{7, 8},
			[]float64{9, 10}, []float64{11, 12}, []float64{13, 14}, []float64{15, 16}), 10, 2, 1024},
	} {
		if got := memoSlots(tc.areas, tc.nc, tc.r); got != tc.want {
			t.Errorf("%s: memoSlots = %d, want %d", tc.name, got, tc.want)
		}
	}
}
