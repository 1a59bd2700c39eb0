// Fixture: the retired thread-per-party entry points. They no longer
// exist, so naming one does not compile, in dprbg-sim or anywhere else.
pub fn shims() {
    dprbg_sim::run_network();
    dprbg_sim::run_network_with_tap();
    dprbg_sim::run_machines();
    dprbg_sim::run_machines_with_tap();
    dprbg_sim::run_machines_traced();
}
