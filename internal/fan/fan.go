// Package fan is the one parallel loop of the compute stack: the cells
// of a figure (one engine on one workload on one fresh cluster) and the
// z-plane tiles of a kernel share nothing but read-only inputs, so each
// caller hands its pieces to Each and spare cores take some.
package fan

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// There is no pool and no knob: busy counts the goroutines that may be
// running pieces in this process, the callers between Enter and Leave
// plus the helpers Each started, and a helper starts only while that
// count is below GOMAXPROCS. A caller never waits for a slot, it runs
// its pieces itself, so nested calls cannot deadlock (a kernel forced
// inside a cell with every core counted runs on the cell's goroutine),
// GOMAXPROCS=1 is the serial loop, and a scheduler with as many workers
// as cores fans out nothing until its queue drains. A caller that
// reaches Each without Enter (a top-level kernel call does) is not
// counted, and so may get one helper more than there are cores.
var (
	busy    atomic.Int32
	started atomic.Int64 // helpers Each has started
)

// Enter counts the calling goroutine as one that runs pieces, until the
// matching Leave.
func Enter() { busy.Add(1) }

// Leave ends the count Enter began.
func Leave() { busy.Add(-1) }

// Busy returns how many goroutines are counted now.
func Busy() int { return int(busy.Load()) }

// Helpers returns how many helper goroutines Each has started in this
// process.
func Helpers() int64 { return started.Load() }

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

// Each runs fn(0) … fn(n-1), each at most once, on the caller and on
// as many helper goroutines as there are spare cores, and returns when
// all that started have returned. A limit above 0 caps the goroutines
// of this call, the caller included, at limit; 1 is the serial loop on
// the caller. Pieces are claimed in index order. After the first
// failure, or once ctx is done (a piece that finds it done fails with
// ctx.Err() without running), no further piece starts, and the error of
// the lowest failed index is returned: every piece below it has run, so
// it is the error the serial loop would have returned. fn must confine
// its writes to what piece i owns. A panic in a piece is re-raised on
// the caller once the other pieces have returned.
func Each(ctx context.Context, n, limit int, fn func(i int) error) error {
	var (
		next    atomic.Int64 // next unclaimed index
		stop    atomic.Bool
		mu      sync.Mutex
		errIdx  = n
		err     error
		crashed string // first panic value and its stack
		wg      sync.WaitGroup
	)
	// piece runs one claimed index and records how it failed, if it did.
	piece := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				stop.Store(true)
				mu.Lock()
				if crashed == "" {
					crashed = fmt.Sprintf("%v [in piece %d]\n%s", r, i, debug.Stack())
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
		// A caller that entered since this helper started has no slot of
		// its own: give this one up at a piece boundary.
		for int(busy.Load()) <= runtime.GOMAXPROCS(0) {
			i, ok := claim()
			if !ok {
				return
			}
			piece(i)
		}
	}
	helpers := 0
	for {
		// Offer the pieces beyond the caller's next one to spare cores;
		// asked again before every piece, because cores free up.
		for helpers+1 < n-int(next.Load()) && (limit <= 0 || helpers+1 < limit) && tryHelperSlot() {
			helpers++
			started.Add(1)
			wg.Add(1)
			go helper()
		}
		i, ok := claim()
		if !ok {
			break
		}
		piece(i)
	}
	wg.Wait()
	if crashed != "" {
		panic(crashed)
	}
	return err
}
