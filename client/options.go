package client

import (
	"time"

	"github.com/audb/audb"
	"github.com/audb/audb/internal/wire"
)

// QueryOption customizes one remote execution, mirroring the root
// package's functional options (audb.WithEngine and friends) plus
// WithTimeout, which the in-process API expresses with a context
// deadline and the wire expresses as a server-side bound.
type QueryOption func(*wire.ExecOptions)

// resolve folds the options into the wire form.
func resolve(opts []QueryOption) wire.ExecOptions {
	var o wire.ExecOptions
	for _, fn := range opts {
		if fn != nil {
			fn(&o)
		}
	}
	return o
}

// WithEngine routes the query to the given engine.
func WithEngine(e audb.Engine) QueryOption {
	return func(o *wire.ExecOptions) { o.Engine = uint8(e) }
}

// WithWorkers sets the executor worker count (0 = one per CPU, 1 = serial).
func WithWorkers(n int) QueryOption {
	return func(o *wire.ExecOptions) { o.Workers = n }
}

// WithJoinCompression bounds intermediate join results (Section 10.4).
func WithJoinCompression(target int) QueryOption {
	return func(o *wire.ExecOptions) { o.JoinCompression = target }
}

// WithAggCompression bounds aggregation group counts (Section 10.5).
func WithAggCompression(target int) QueryOption {
	return func(o *wire.ExecOptions) { o.AggCompression = target }
}

// WithTimeout bounds the query's execution server-side. Unlike a
// context deadline — which cancels from the client on round-trip time —
// this deadline is enforced where the work runs.
func WithTimeout(d time.Duration) QueryOption {
	return func(o *wire.ExecOptions) {
		if d > 0 {
			o.TimeoutMS = uint64(d / time.Millisecond)
		}
	}
}
