package analyze

// OracleDiffBytes hands the string-diff oracle to the external tests,
// which diff real runs (they import the example programs).
var OracleDiffBytes = oracleDiffBytes
