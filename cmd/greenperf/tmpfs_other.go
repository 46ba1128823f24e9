//go:build !linux

package main

import "errors"

func inPrivateNamespace() bool { return false }

func runPrivate() (int, error) { return 0, errNoNamespaces }

func mountTmpfs(string) error { return errNoNamespaces }

var errNoNamespaces = errors.New("a private tmpfs needs Linux user and mount namespaces")
