// Package utility is a hermetic fixture stub of socialrec/internal/utility:
// the pooled Support and its release call, shapes only.
package utility

type Support struct {
	Idx  []int32
	Val  []float64
	Skip []int32
}

func FillSparse(r int) (*Support, error) { return &Support{}, nil }

func (s *Support) Release() {}
