package cluster

import "time"

func Stamp() int64 {
	return time.Now().UnixNano() // walldeterminism
}
