package ws

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func BenchmarkDequePushPop(b *testing.B) {
	d := NewDeque()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.PushBottom(Range{Start: i, End: i + 1})
		d.PopBottom()
	}
}

func BenchmarkDequeSteal(b *testing.B) {
	d := NewDeque()
	for i := 0; i < b.N; i++ {
		d.PushBottom(Range{Start: i, End: i + 1})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Steal()
	}
}

// BenchmarkParallelForThroughput measures one loop on a warmed pool at
// the size of one serve-workload operation (4096 items) and at a large
// size; allocs/op is the per-loop cost, zero once the loop state is
// recycled.
func BenchmarkParallelForThroughput(b *testing.B) {
	for _, n := range []int{4096, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := NewPool(0)
			var sink atomic.Int64
			body := func(j int) {
				if j == 0 {
					sink.Add(1)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.ParallelFor(n, 256, body)
			}
		})
	}
}

// BenchmarkPoolContention measures aggregate loop throughput when 1, 4
// and 16 tenants run ParallelFor concurrently on one shared pool — the
// multi-tenant scaling curve the parking path is meant to protect
// (spinning idle workers collapse it by stealing cycles from tenants
// with real work).
func BenchmarkPoolContention(b *testing.B) {
	const n = 1 << 16
	for _, callers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			p := NewPool(0)
			var sink atomic.Int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for c := 0; c < callers; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						p.ParallelFor(n, 256, func(j int) {
							if j == 0 {
								sink.Add(1)
							}
						})
					}()
				}
				wg.Wait()
			}
			b.StopTimer()
			items := float64(callers) * n * float64(b.N)
			b.ReportMetric(items/b.Elapsed().Seconds(), "items/s")
		})
	}
}
