//go:build race

// Package tagged has no file but one behind a build tag.
package tagged

import "unsafe"

var size = unsafe.Sizeof(0)
