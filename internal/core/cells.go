package core

import (
	"context"

	"imagebench/internal/fan"
)

// The cells of a figure — one engine on one workload on one fresh
// cluster — share nothing but read-only inputs, so an experiment hands
// them to fan.Each and spare cores take some; Experiment.RunContext
// counts its caller as one of the goroutines running them.

// forEachGridCell runs the cells of a cols × rows grid flattened into
// one fan.Each, column by column: one barrier per figure, not per
// column.
func forEachGridCell(ctx context.Context, cols, rows int, fn func(col, row int) error) error {
	return fan.Each(ctx, cols*rows, 0, func(i int) error { return fn(i/rows, i%rows) })
}

// perSize builds one input per sweep point, each as a cell of its own.
func perSize[T any](ctx context.Context, sizes []int, build func(n int) (T, error)) ([]T, error) {
	out := make([]T, len(sizes))
	err := fan.Each(ctx, len(sizes), 0, func(i int) (err error) {
		out[i], err = build(sizes[i])
		return err
	})
	return out, err
}
