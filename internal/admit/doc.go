// Package admit implements the platform's admission layer: a cap on
// concurrently running requests (MaxInflight), a bounded FIFO queue in
// front of it, and the typed sheds that bound the queue — queue-full on
// arrival and deadline expiry in the queue or mid-run. The engine adds a
// fourth shed, control-plane-down, without consulting the Controller.
// Tenant names are labels only: no decision reads them, so a schedule's
// outcome does not depend on how its requests are split across tenants.
//
// The package is engine-agnostic and single-threaded by design: the
// platform engine calls the Controller only from the simulator thread, so
// every admission decision lands at a deterministic virtual-time instant
// and the whole layer stays byte-identical across Options.Workers. See
// DESIGN.md §11 for the overload model.
package admit
