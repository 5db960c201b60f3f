package lazy

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// A value is computed once, by whichever Force comes first, and every
// Force, concurrent or later, gets that value and error. Computed counts
// it once, and a value nobody forces not at all.
func TestForceComputesOnce(t *testing.T) {
	var runs atomic.Int32
	boom := errors.New("boom")
	before := Computed()
	v := Of(func() (int, error) { runs.Add(1); return 7, boom })
	Of(func() (int, error) { panic("never forced") })
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
	if n := Computed() - before; n != 1 {
		t.Errorf("Computed moved by %d, want 1", n)
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
