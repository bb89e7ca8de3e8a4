package engineering

import (
	"repro/internal/naming"
	"repro/internal/values"
)

// InterfaceCheckpoint captures one interface's identity and type, enough
// to re-register it after reactivation or migration. The full reference is
// recorded (not just the local slot) because interface identity must
// survive any number of migrations: the identity minted at creation is the
// name clients hold forever.
type InterfaceCheckpoint struct {
	Seq  uint32              // local slot within the object
	Ref  naming.InterfaceRef // original identity (+ last-known location)
	Type values.Value        // encoded types.Interface
}

// ObjectCheckpoint captures one basic engineering object.
type ObjectCheckpoint struct {
	Seq        uint32
	Behavior   string       // behaviour-registry name
	Arg        values.Value // creation argument
	State      values.Value // captured state (when HasState)
	HasState   bool
	Interfaces []InterfaceCheckpoint
}

// ClusterCheckpoint captures a whole cluster: the unit of deactivation,
// reactivation, migration and failure recovery.
type ClusterCheckpoint struct {
	Origin         naming.ClusterID // identity at capture time
	NextObject     uint32
	AutoReactivate bool
	Objects        []ObjectCheckpoint
}
