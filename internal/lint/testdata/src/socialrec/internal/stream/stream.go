// Package stream is a hermetic fixture stub of socialrec/internal/stream:
// the instrumented Pool, shapes only.
package stream

type Pool[T any] struct{ newFn func() *T }

func NewPool[T any](name string, newFn func() *T) *Pool[T] { return &Pool[T]{newFn: newFn} }

func (p *Pool[T]) Get() *T  { return p.newFn() }
func (p *Pool[T]) Put(v *T) {}
