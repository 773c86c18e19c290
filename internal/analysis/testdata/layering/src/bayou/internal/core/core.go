package core

import (
	_ "bayou/internal/cluster" // want `core imports bayou/internal/cluster`
	_ "bayou/internal/spec"
)

type Dot struct{}

type SessionID int64
