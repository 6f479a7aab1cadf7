//go:build !linux

package main

func osYield() {}
