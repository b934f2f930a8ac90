package server

import "context"

// bootContext is the package's only sanctioned source of a fresh root
// context. Request paths must thread the request's context so the
// end-to-end deadline propagates — `make lint` rejects
// context.Background() in this package's non-test files — but some
// work legitimately has no caller: boot-time graph loading and WAL
// replay, drain's grace window, persisting a registered graph after
// the response went out, importing a dead peer's graph during WAL
// adoption. Routing those through a named helper keeps each use
// auditable (grep bootContext) instead of invisible among forbidden
// Backgrounds.
func bootContext() context.Context {
	return context.Background() // the lint excludes this file by path
}
