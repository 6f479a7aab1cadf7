package utility

import (
	"slices"
	"testing"
)

// wantSkip recomputes the tail-rank table the obvious way: r, r's
// out-neighbors and the support, sorted.
func wantSkip(v View, r int, idx []int32) []int32 {
	skip := []int32{int32(r)}
	v.ForEachOutNeighbor(r, func(u int) { skip = append(skip, int32(u)) })
	skip = append(skip, idx...)
	slices.Sort(skip)
	return skip
}

func TestFillSparseMatchesSparse(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := sparseTestGraph(t, 60, 150, directed, 31)
		snap := g.Snapshot()
		for _, f := range allFunctions() {
			for r := 0; r < snap.NumNodes(); r++ {
				wantIdx, wantVal, err := f.Sparse(snap, r)
				if err != nil {
					t.Fatalf("%s Sparse(%d): %v", f.Name(), r, err)
				}
				sup, err := FillSparse(f, snap, r)
				if err != nil {
					t.Fatalf("%s FillSparse(%d): %v", f.Name(), r, err)
				}
				if !slices.Equal(sup.Idx, wantIdx) || !slices.Equal(sup.Val, wantVal) {
					t.Fatalf("%s directed=%v r=%d: pooled support (%v, %v) vs Sparse (%v, %v)",
						f.Name(), directed, r, sup.Idx, sup.Val, wantIdx, wantVal)
				}
				if want := wantSkip(snap, r, wantIdx); !slices.Equal(sup.Skip, want) {
					t.Fatalf("%s directed=%v r=%d: skip %v, want %v", f.Name(), directed, r, sup.Skip, want)
				}
				sup.Release()
			}
		}
	}
}

func TestFillSparseTargetValidation(t *testing.T) {
	g := sparseTestGraph(t, 10, 20, false, 5)
	snap := g.Snapshot()
	for _, f := range allFunctions() {
		for _, r := range []int{-1, snap.NumNodes()} {
			if sup, err := FillSparse(f, snap, r); err == nil {
				sup.Release()
				t.Fatalf("%s FillSparse(%d): expected range error", f.Name(), r)
			}
		}
	}
}
