package pcu

import (
	"math"
	"time"
)

// ForgetMemos empties the PCU's memos, so the next Observe recomputes
// every pure function: the memo-free reference the memo tests compare
// against.
func (p *PCU) ForgetMemos() {
	p.cpuScale.hz, p.gpuScale.hz = math.NaN(), math.NaN()
	p.loads.cpu.Hz = math.NaN()
	p.dtMemo = newDTCoeffs(math.MinInt64 * time.Nanosecond)
}
