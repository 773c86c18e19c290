package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// Layering is the import ruler for the sealed-driver architecture:
//
//   - the façade (package bayou) touches substrate packages only from its
//     driver adapter files (driver*.go) — everything else goes through the
//     Driver interface;
//   - internal/core is the protocol kernel and imports nothing from the
//     module except spec and stateobj (in particular never a substrate or
//     the drivers that host it);
//   - internal/check, internal/history and internal/record are the
//     substrate-blind observation layer: verdicts and histories must stay
//     comparable across substrates, so they may not import any substrate;
//   - a session is a client of the system, not part of a replica or of the
//     machinery that hosts one: the one session table is record.Recorder's,
//     so the two driver packages may not declare a struct field keyed by
//     core.SessionID again.
var Layering = &Analyzer{
	Name: "layering",
	Doc:  "enforce the sealed-driver import architecture (façade/driver/substrate, substrate-blind checkers)",
	Run:  runLayering,
}

// substratePackages are the deployment substrates and their plumbing: the
// two drivers plus the simulator scheduler, network, broadcast and
// consensus layers, the failure detector, and the socket transport.
var substratePackages = map[string]bool{
	"bayou/internal/cluster": true,
	"bayou/internal/livenet": true,
	"bayou/internal/wire":    true,
	"bayou/internal/sim":     true,
	"bayou/internal/simnet":  true,
	"bayou/internal/tob":     true,
	"bayou/internal/rb":      true,
	"bayou/internal/paxos":   true,
	"bayou/internal/fd":      true,
}

// coreAllowed is the import allowlist for the protocol kernel.
var coreAllowed = map[string]bool{
	"bayou/internal/spec":     true,
	"bayou/internal/stateobj": true,
}

// substrateBlind are the observation-layer packages that must produce
// identical artifacts regardless of substrate.
var substrateBlind = map[string]bool{
	"bayou/internal/check":   true,
	"bayou/internal/history": true,
	"bayou/internal/record":  true,
}

// sessionTableFree are the driver packages that once each kept their own
// session→replica registry (and the socket controller a pending-call mirror
// besides).
var sessionTableFree = map[string]bool{
	"bayou/internal/cluster": true,
	"bayou/internal/livenet": true,
}

func runLayering(pass *Pass) error {
	pkgPath := pass.Pkg.Path()
	for _, f := range pass.Files {
		if sessionTableFree[pkgPath] {
			checkSessionTables(pass, f)
		}
		fileName := pass.Fset.Position(f.Pos()).Filename
		base := fileName[strings.LastIndexByte(fileName, '/')+1:]
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			checkImport(pass, pkgPath, base, imp, path)
		}
	}
	return nil
}

func checkImport(pass *Pass, pkgPath, fileBase string, imp *ast.ImportSpec, path string) {
	switch {
	case pkgPath == "bayou":
		if substratePackages[path] && !strings.HasPrefix(fileBase, "driver") {
			pass.Reportf(imp.Pos(), "façade file %s imports substrate package %s: only the driver*.go adapters may reach below the Driver interface", fileBase, path)
		}
	case pkgPath == "bayou/internal/core":
		if strings.HasPrefix(path, "bayou") && !coreAllowed[path] {
			pass.Reportf(imp.Pos(), "core imports %s: the protocol kernel may import only spec and stateobj, never a substrate or driver", path)
		}
	case substrateBlind[pkgPath]:
		if substratePackages[path] {
			pass.Reportf(imp.Pos(), "%s imports substrate package %s: the observation layer must stay substrate-blind so histories and verdicts are comparable across drivers", pkgPath, path)
		}
	}
}

// checkSessionTables reports every struct field of type map[core.SessionID]….
func checkSessionTables(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		for _, field := range st.Fields.List {
			m, ok := pass.TypesInfo.TypeOf(field.Type).(*types.Map)
			if !ok {
				continue
			}
			key, ok := m.Key().(*types.Named)
			if ok && key.Obj().Name() == "SessionID" && key.Obj().Pkg() != nil && key.Obj().Pkg().Path() == "bayou/internal/core" {
				pass.Reportf(field.Pos(), "%s declares a session registry (a field of type %s): sessions live in record.Recorder's table, not in a driver", pass.Pkg.Path(), m)
			}
		}
		return true
	})
}
