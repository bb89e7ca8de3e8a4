package legacy

import (
	"testing"

	"fixture/internal/lib"
)

func probeShared() {}

func TestNamesRetired(t *testing.T) { _ = lib.Retired }
