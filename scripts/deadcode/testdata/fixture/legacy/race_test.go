//go:build race

package legacy

func MaxInFlight() {} // behind a build tag, so only the parse sees it
