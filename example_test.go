package gridmutex_test

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gridmutex"
)

// Example shows the smallest useful deployment: a live in-process grid
// whose application processes take a grid-wide lock.
func Example() {
	grid, err := gridmutex.New(gridmutex.Config{
		Clusters:       2,
		AppsPerCluster: 2,
		Intra:          "naimi",
		Inter:          "martin",
	})
	if err != nil {
		panic(err)
	}
	defer grid.Close()

	counter := 0
	var wg sync.WaitGroup
	for i := 0; i < grid.Apps(); i++ {
		m := grid.Mutex(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 5; k++ {
				if err := m.Lock(context.Background()); err != nil {
					panic(err)
				}
				counter++
				m.Unlock()
			}
		}()
	}
	wg.Wait()
	fmt.Println(counter)
	// Output: 20
}

// ExampleNew_grid5000 builds a deployment over the paper's measured
// Grid'5000 latencies (scaled 1000x faster for the example).
func ExampleNew_grid5000() {
	grid, err := gridmutex.New(gridmutex.Config{
		Clusters:       9,
		AppsPerCluster: 1,
		Grid5000:       true,
		LatencyScale:   1000,
	})
	if err != nil {
		panic(err)
	}
	defer grid.Close()

	m := grid.Mutex(0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Lock(ctx); err != nil {
		panic(err)
	}
	m.Unlock()
	fmt.Println(grid.Apps(), "processes across", 9, "clusters")
	// Output: 9 processes across 9 clusters
}

// ExampleAlgorithms lists the pluggable algorithms.
func ExampleAlgorithms() {
	for _, a := range gridmutex.Algorithms() {
		fmt.Println(a)
	}
	// Output:
	// central
	// martin
	// naimi
	// raymond
	// ricart-agrawala
	// suzuki
}

// ExampleDescribeFigure shows the experiment catalogue.
func ExampleDescribeFigure() {
	d, err := gridmutex.DescribeFigure("fig4b")
	if err != nil {
		panic(err)
	}
	fmt.Println(d)
	// Output: inter-cluster messages per CS vs rho
}
