// Package pert is a from-scratch Go reproduction of "Emulating AQM from End
// Hosts" (Bhandarkar, Reddy, Zhang, Loguinov — SIGCOMM 2007): the PERT
// congestion-control algorithm, a packet-level discrete-event network
// simulator to evaluate it on, the congestion-predictor study of Section 2,
// and the fluid-model stability analysis of Section 5. See README.md for the
// layout; cmd/pertbench regenerates the paper's tables and figures.
package pert
