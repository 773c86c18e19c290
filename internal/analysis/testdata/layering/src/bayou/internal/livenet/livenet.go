// Package livenet is a stand-in for the live driver substrate.
package livenet

import "bayou/internal/core"

type Controller struct {
	sessions  map[core.SessionID]int // want `bayou/internal/livenet declares a session registry`
	byReplica map[int]core.SessionID // a SessionID value is no registry
	last      core.SessionID
}
