package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// The cells of a figure — one engine on one workload on one fresh
// cluster — share nothing but read-only inputs, so an experiment hands
// them to forEachCell and spare cores take some. There is no pool and
// no knob: busy counts the goroutines that may be running cells in this
// process, the callers inside Experiment.RunContext plus the helpers
// forEachCell started, and a helper starts only while that count is
// below GOMAXPROCS. A caller never waits for a slot, it runs its cells
// itself, so nested calls cannot deadlock, GOMAXPROCS=1 is the serial
// loop, and a scheduler with as many workers as cores fans out nothing
// until its queue drains. A caller that reaches an experiment's Run
// without RunContext (tests do) is not counted, and so may get one
// helper more than there are cores.
var busy atomic.Int32

// tryHelperSlot claims a slot for one more helper if a core is spare.
func tryHelperSlot() bool {
	for {
		b := busy.Load()
		if int(b) >= runtime.GOMAXPROCS(0) {
			return false
		}
		if busy.CompareAndSwap(b, b+1) {
			return true
		}
	}
}

// forEachCell runs fn(0) … fn(n-1), each at most once, on the caller
// and on as many helper goroutines as there are spare cores, and
// returns when all that started have returned. Cells are claimed in
// index order. After the first failure, or once ctx is done (a cell
// that finds it done fails with ctx.Err() without running), no further
// cell starts, and the error of the lowest failed index is returned:
// every cell below it has run, so it is the error the serial loop
// would have returned. fn must confine its writes to what cell i owns.
// A panic in a cell is re-raised on the caller once the other cells
// have returned.
func forEachCell(ctx context.Context, n int, fn func(i int) error) error {
	var (
		next    atomic.Int64 // next unclaimed index
		stop    atomic.Bool
		mu      sync.Mutex
		errIdx  = n
		err     error
		crashed string // first panic value and its stack
		wg      sync.WaitGroup
	)
	// cell runs one claimed index and records how it failed, if it did.
	cell := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				stop.Store(true)
				mu.Lock()
				if crashed == "" {
					crashed = fmt.Sprintf("%v [in cell %d]\n%s", r, i, debug.Stack())
				}
				mu.Unlock()
			}
		}()
		e := ctx.Err()
		if e == nil {
			e = fn(i)
		}
		if e != nil {
			stop.Store(true)
			mu.Lock()
			if i < errIdx {
				errIdx, err = i, e
			}
			mu.Unlock()
		}
	}
	claim := func() (int, bool) {
		if stop.Load() {
			return 0, false
		}
		i := int(next.Add(1)) - 1
		return i, i < n
	}
	helper := func() {
		defer wg.Done()
		defer busy.Add(-1)
		// A caller that entered RunContext since this helper started
		// has no slot of its own: give this one up at a cell boundary.
		for int(busy.Load()) <= runtime.GOMAXPROCS(0) {
			i, ok := claim()
			if !ok {
				return
			}
			cell(i)
		}
	}
	helpers := 0
	for {
		// Offer the cells beyond the caller's next one to spare cores;
		// asked again before every cell, because cores free up.
		for helpers+1 < n-int(next.Load()) && tryHelperSlot() {
			helpers++
			wg.Add(1)
			go helper()
		}
		i, ok := claim()
		if !ok {
			break
		}
		cell(i)
	}
	wg.Wait()
	if crashed != "" {
		panic(crashed)
	}
	return err
}

// forEachGridCell is forEachCell over a cols × rows grid flattened into
// one call, column by column: one barrier per figure, not per column.
func forEachGridCell(ctx context.Context, cols, rows int, fn func(col, row int) error) error {
	return forEachCell(ctx, cols*rows, func(i int) error { return fn(i/rows, i%rows) })
}

// perSize builds one input per sweep point, each as a cell of its own.
func perSize[T any](ctx context.Context, sizes []int, build func(n int) (T, error)) ([]T, error) {
	out := make([]T, len(sizes))
	err := forEachCell(ctx, len(sizes), func(i int) (err error) {
		out[i], err = build(sizes[i])
		return err
	})
	return out, err
}
