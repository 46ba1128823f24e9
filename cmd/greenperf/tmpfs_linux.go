package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"syscall"
)

// privateEnv marks the re-executed greenperf that runs inside its own
// user and mount namespace.
const privateEnv = "GREENPERF_PRIVATE_TMPFS"

// inPrivateNamespace reports whether this process is the re-executed
// child.
func inPrivateNamespace() bool { return os.Getenv(privateEnv) != "" }

// runPrivate re-executes greenperf in a new user and mount namespace,
// where the work directory is a memory-backed tmpfs that only this run
// and its children see: campaign output never reaches the shared disk,
// whose fsync latency belongs to the host, not to the program. It
// returns the child's exit code, or an error when the kernel refuses
// the namespaces.
func runPrivate() (int, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, os.Args[1:]...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	cmd.Env = append(os.Environ(), privateEnv+"=1")
	cmd.SysProcAttr = &syscall.SysProcAttr{
		Cloneflags:  syscall.CLONE_NEWUSER | syscall.CLONE_NEWNS,
		UidMappings: []syscall.SysProcIDMap{{ContainerID: 0, HostID: os.Getuid(), Size: 1}},
		GidMappings: []syscall.SysProcIDMap{{ContainerID: 0, HostID: os.Getgid(), Size: 1}},
	}
	if err := cmd.Start(); err != nil {
		return 0, fmt.Errorf("user and mount namespaces refused: %w", err)
	}
	err = cmd.Wait()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), nil
	}
	if err != nil {
		return 1, nil
	}
	return 0, nil
}

// mountTmpfs mounts a private tmpfs over dir. Inside the namespace the
// mount stays invisible to the rest of the system and disappears when
// the last process of the run exits.
func mountTmpfs(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := syscall.Mount("", "/", "", syscall.MS_REC|syscall.MS_PRIVATE, ""); err != nil {
		return err
	}
	return syscall.Mount("tmpfs", dir, "tmpfs", 0, "size=512m,mode=0755")
}
