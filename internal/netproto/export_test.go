package netproto

// KillLeaderOnce arms rs's chaos hook to kill the leader once, at the
// named kill point of day, for tests outside the package.
func KillLeaderOnce(rs *ReplicaSet, day int, point string) { rs.killAt = killOnce(day, point) }
