package pool

import "seeded/internal/volume"

func Leak(a *volume.Arena) {
	a.Get(1, 1, 1) // releasepair
}
