// Outside the sim boundary, concurrency is not simconc's business:
// nothing in this file is flagged.
package driver

func fanOut(work []func()) {
	done := make(chan struct{})
	for _, w := range work {
		w := w
		go func() {
			w()
			done <- struct{}{}
		}()
	}
	for range work {
		<-done
	}
}
