package socialrec

// Fixed-seed golden digest of the serving output. Every recommendation the
// library releases for a fixed seed, graph and configuration is pinned by
// one SHA-256 over the outputs of RecommendWithRNG and RecommendTopKWithRNG
// for every target of a fixture graph, across utilities × mechanisms ×
// directedness. The same digest must come out of all three ways a request
// can find its pre-noise form: computed per request (no cache), read from
// the utility-vector cache, or shared through the coalescer. A refactor of
// the pre-noise stage that changes any released byte fails here.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"
	"time"

	"socialrec/internal/distribution"
)

// goldenServingDigest is the digest every serving mode must reproduce.
const goldenServingDigest = "4d43a43c4adc68bf5e18f96a120d0b3facbe3a89e7945b12d0aa6f3d0136423d"

func TestGoldenServingDigest(t *testing.T) {
	modes := []struct {
		name string
		opts []Option
	}{
		{"uncached", nil},
		{"cache", []Option{WithCache(1 << 12)}},
		{"coalesce", []Option{WithCoalescing(time.Microsecond)}},
	}
	for _, m := range modes {
		if got := servingDigest(t, m.opts); got != goldenServingDigest {
			t.Errorf("%s serving digest = %s, want %s", m.name, got, goldenServingDigest)
		}
	}
}

// servingDigest hashes every single and top-k release over the fixture
// matrix for one serving mode.
func servingDigest(t *testing.T, mode []Option) string {
	t.Helper()
	h := sha256.New()
	kinds := []MechanismKind{MechanismExponential, MechanismLaplace, MechanismSmoothing, MechanismNone}
	for _, directed := range []bool{false, true} {
		g := servingTestGraph(t, directed, 53)
		for _, u := range servingUtilities() {
			for _, kind := range kinds {
				opts := append([]Option{WithEpsilon(1), WithSeed(7), WithUtility(u), WithMechanism(kind)}, mode...)
				rec, err := NewRecommender(g, opts...)
				if err != nil {
					t.Fatal(err)
				}
				for target := -1; target <= g.NumNodes(); target++ {
					got, err := rec.RecommendWithRNG(target, distribution.SplitN(3, "golden", target))
					hashRelease(h, err, got)
					for _, k := range []int{1, 3, 7} {
						recs, err := rec.RecommendTopKWithRNG(target, k, distribution.SplitN(3, "golden-topk", 8*target+k))
						hashRelease(h, err, recs...)
					}
				}
				rec.Close()
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashRelease folds one release — its error text, or every recommendation
// in order — into h.
func hashRelease(h hash.Hash, err error, recs ...Recommendation) {
	if err != nil {
		h.Write([]byte("err:" + err.Error() + "\n"))
		return
	}
	var b [32]byte
	for _, r := range recs {
		binary.LittleEndian.PutUint64(b[0:], uint64(r.Target))
		binary.LittleEndian.PutUint64(b[8:], uint64(r.Node))
		binary.LittleEndian.PutUint64(b[16:], math.Float64bits(r.Utility))
		binary.LittleEndian.PutUint64(b[24:], math.Float64bits(r.MaxUtility))
		h.Write(b[:])
	}
	h.Write([]byte("\n"))
}
