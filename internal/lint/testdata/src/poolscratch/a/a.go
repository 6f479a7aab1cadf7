// Package a holds positive and negative poolscratch fixtures.
package a

import (
	"socialrec/internal/stream"
	"socialrec/internal/utility"
)

type buf struct{ vals []float64 }

var bufPool = stream.NewPool("fixture.buf", func() *buf { return &buf{} })

type holder struct{ b *buf }

var leaked *buf

func useAfterPut() {
	b := bufPool.Get()
	b.vals = append(b.vals, 1)
	bufPool.Put(b)
	b.vals[0] = 2 // want "use of .b. after it was released"
}

func storeToField(h *holder) {
	b := bufPool.Get()
	h.b = b // want "stored to struct field b"
	bufPool.Put(b)
}

func storeToGlobal() {
	b := bufPool.Get()
	leaked = b // want "stored to package-level variable leaked"
	bufPool.Put(b)
}

func useAfterRelease() float64 {
	sup, _ := utility.FillSparse(1)
	sup.Release()
	return sup.Val[0] // want "use of .sup. after it was released"
}

func releaseAfterUseIsFine() float64 {
	sup, _ := utility.FillSparse(1)
	defer sup.Release()
	return sup.Val[0]
}

func deferredPutIsFine() float64 {
	b := bufPool.Get()
	defer bufPool.Put(b)
	b.vals = append(b.vals, 3)
	return b.vals[0]
}

func rebindIsFine() {
	b := bufPool.Get()
	bufPool.Put(b)
	b = bufPool.Get()
	b.vals = b.vals[:0]
	bufPool.Put(b)
}

// pooledSupport mirrors the kernel pattern: pooled scratch linked into
// other pooled scratch that owns it until release. No reports here.
type pooledSupport struct {
	b   *buf
	pos int
}

var supportPool = stream.NewPool("fixture.support", func() *pooledSupport { return &pooledSupport{} })

func kernelPatternIsFine() *pooledSupport {
	sp := supportPool.Get()
	b := bufPool.Get()
	sp.b = b // linking into request-scoped pooled scratch is the contract
	return sp
}
