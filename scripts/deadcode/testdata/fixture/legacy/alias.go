package legacy

import l "fixture/internal/lib"

var checked = l.Check() // through an import alias
