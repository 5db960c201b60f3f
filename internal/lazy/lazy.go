// Package lazy holds values computed at most once, when something first
// reads them. The engine models' record values are such values: a
// simulated task's virtual time comes from the declared size of what it
// emits, never from its pixels, so a UDF hands on a value over its
// inputs' values and no kernel runs until a caller reads the pipeline's
// output (Force). A table never does; the engine tests and the
// reference checks do.
package lazy

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Value is a value computed by its function on the first Force, from any
// number of goroutines at once, and handed to every Force afterwards.
type Value[T any] struct {
	once sync.Once
	f    func() (T, error)
	v    T
	err  error
}

// errPanicked is what a Force returns after the first one panicked.
var errPanicked = errors.New("lazy: the value's computation panicked")

// computed counts the values computed since process start.
var computed atomic.Uint64

// Computed reports how many values have been computed since process
// start, whatever their type: a run that forces nothing leaves it still.
func Computed() uint64 { return computed.Load() }

// Of returns the value f computes, not yet computed.
func Of[T any](f func() (T, error)) *Value[T] { return &Value[T]{f: f} }

// Force computes the value if no Force has, and returns it. A panic in
// the computation reaches the first caller; later ones get an error.
func (l *Value[T]) Force() (T, error) {
	l.once.Do(func() {
		computed.Add(1)
		l.err = errPanicked
		l.v, l.err = l.f()
		l.f = nil // what it captured is garbage now
	})
	return l.v, l.err
}
