// Package obs stubs the path suffix and function spanend keys on.
package obs

import "context"

type Span struct{}

func (*Span) End() {}

func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return ctx, &Span{}
}
