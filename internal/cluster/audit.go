package cluster

import "imagebench/internal/vtime"

// The schedule audit's hooks (audit_test.go): nil outside this package's
// tests, so each booking path pays one branch on them and records
// nothing.
var (
	// auditBooked sees each call that books: the intervals it booked,
	// when its dependencies ended, and the End of the handle it returns.
	// A Barrier is a call that books nothing.
	auditBooked func(c *Cluster, after, until vtime.Time, bs ...booked)
	// auditMakespan sees each Makespan, to check the schedule so far.
	auditMakespan func(c *Cluster)
)

// booked is one interval a call booked on one of a node's resources: a
// worker slot ('w'), the NIC ('n') or the disk ('d').
type booked struct {
	node, slot int
	kind       byte
	start, end vtime.Time
}
