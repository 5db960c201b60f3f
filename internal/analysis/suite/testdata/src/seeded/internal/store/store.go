package store

import "os"

func Save(path string, b []byte) error {
	return os.WriteFile(path, b, 0o644) // atomicwrite
}
