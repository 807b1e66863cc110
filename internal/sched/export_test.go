package sched

// OracleSearchCounted is OracleSearch that also returns the number of
// invocations the search's candidates simulated.
var OracleSearchCounted = oracleSearch

// PickOracle is the Oracle's pick over a search's candidates.
var PickOracle = pickOracle
