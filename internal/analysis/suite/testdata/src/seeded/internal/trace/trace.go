package trace

import (
	"context"

	"seeded/internal/obs"
)

func Step(ctx context.Context) {
	obs.StartSpan(ctx, "step") // spanend
}
