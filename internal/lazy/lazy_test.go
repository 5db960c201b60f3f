package lazy

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// A value is computed once, by whichever Force comes first, and every
// Force, concurrent or later, gets that value and error.
func TestForceComputesOnce(t *testing.T) {
	var runs atomic.Int32
	boom := errors.New("boom")
	v := Of(func() (int, error) { runs.Add(1); return 7, boom })
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if x, err := v.Force(); x != 7 || err != boom {
				t.Errorf("Force = %d, %v", x, err)
			}
		}()
	}
	wg.Wait()
	if x, err := v.Force(); x != 7 || err != boom || runs.Load() != 1 {
		t.Errorf("Force = %d, %v after %d runs, want 7, boom after 1", x, err, runs.Load())
	}
}

// A panic reaches the first Force; later ones fail instead of handing
// out a zero value as if it were computed.
func TestForceAfterAPanicFails(t *testing.T) {
	v := Of(func() (*int, error) { panic("kernel") })
	func() {
		defer func() {
			if recover() != "kernel" {
				t.Error("the first Force did not see the panic")
			}
		}()
		v.Force()
	}()
	if x, err := v.Force(); x != nil || !errors.Is(err, errPanicked) {
		t.Errorf("Force after the panic = %v, %v", x, err)
	}
}
