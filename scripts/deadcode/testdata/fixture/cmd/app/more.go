package main

import "fixture/internal/lib"

var check = lib.Check // a second file of cmd/app, which its exception leaves out
